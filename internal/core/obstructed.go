package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/visgraph"
)

// obstructedDistance implements compute_obstructed_distance (Fig 8 of the
// paper): the shortest-path distance between two graph nodes is provisional
// until no obstacle outside the current search range can intersect the path,
// so the range is iteratively enlarged to the latest provisional distance
// and newly discovered obstacles are folded into the graph. The distance is
// monotonically non-decreasing across iterations; the loop stops when an
// enlargement discovers no new obstacle.
//
// center must be the point of one of the two nodes (the paper centers ranges
// at the query point): any path of length L from it stays inside the disk of
// radius L, which is what makes the termination condition sound.
//
// searched is the radius already covered by the caller's initial graph.
// When the nodes are disconnected the range is doubled geometrically; once
// the range covers every obstacle and no path exists, the distance is +Inf
// (p is sealed off, a case the paper does not discuss but real data can
// produce).
func (s *Session) obstructedDistance(g *visgraph.Graph, np, nq visgraph.NodeID, center geom.Point, searched float64) (float64, error) {
	cover, err := s.coverRadius(center)
	if err != nil {
		return 0, err
	}
	for {
		if err := s.err(); err != nil {
			return 0, err
		}
		var d float64
		s.dijkstra(func() { d = g.ObstructedDist(np, nq) })
		// A cancellation mid-expansion leaves d unsettled (+Inf); without
		// this re-check the 'searched >= cover' branch would report a
		// reachable pair as proven-unreachable with a nil error.
		if err := s.err(); err != nil {
			return 0, err
		}
		var radius float64
		if math.IsInf(d, 1) {
			if searched >= cover {
				return d, nil // provably unreachable
			}
			radius = searched * 2
			if radius < geom.Eps {
				radius = 1
			}
			if radius > cover {
				radius = cover
			}
		} else {
			if d <= searched {
				// Every obstacle that could touch a path of length d is
				// already in the graph.
				return d, nil
			}
			radius = d
		}
		added, err := s.addObstaclesWithin(g, center, radius)
		if err != nil {
			return 0, err
		}
		if radius > searched {
			searched = radius
		}
		if !added && !math.IsInf(d, 1) {
			// Termination condition of Fig 8: the last enlargement found no
			// new obstacle, so the provisional distance is final.
			return d, nil
		}
		if !added && math.IsInf(d, 1) && searched >= cover {
			return d, nil
		}
	}
}

// ObstructedPath returns a shortest obstacle-avoiding path from a to b as a
// point sequence (bending only at obstacle vertices, per [LW79]) together
// with its length. The path is nil and the length +Inf when b is
// unreachable. The graph is grown by the same iterative enlargement as
// ObstructedDistance before the final path is extracted.
func (s *Session) ObstructedPath(a, b geom.Point) (_ []geom.Point, _ float64, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	st.Candidates = 1
	for _, p := range [2]geom.Point{a, b} {
		inside, err := s.InsideObstacle(p)
		if err != nil {
			return nil, 0, st, err
		}
		if inside {
			st.FalseHits = 1
			return nil, math.Inf(1), st, nil
		}
	}
	r := a.Dist(b)
	obs, err := s.relevantObstacles(a, r)
	if err != nil {
		return nil, 0, st, err
	}
	g := s.buildGraph(obs)
	na := g.AddTerminal(a)
	nb := g.AddTerminal(b)
	st.DistComputations = 1
	d, err := s.obstructedDistance(g, nb, na, a, r)
	st.GraphNodes, st.GraphEdges = g.NumNodes(), g.NumEdges()
	if err != nil {
		return nil, 0, st, err
	}
	if math.IsInf(d, 1) {
		st.FalseHits = 1
		return nil, d, st, nil
	}
	st.Results = 1
	var nodes []visgraph.NodeID
	var dist float64
	s.dijkstra(func() { nodes, dist = g.ShortestPath(na, nb) })
	if err := s.err(); err != nil {
		return nil, 0, st, err
	}
	path := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		path[i] = g.Point(n)
	}
	return path, dist, st, nil
}

// ObstructedDistance computes dO(a, b). It returns +Inf when b is
// unreachable from a, including when either point lies strictly inside an
// obstacle. With the engine's graph cache enabled the pair is a one-target
// batch (batchViaCache), so repeated pairs in one region reuse an expanded
// graph. Without it, a local visibility graph is built with the obstacles in
// the Euclidean range dE(a, b) around a (as in Fig 7) and the iterative
// enlargement runs on it.
func (s *Session) ObstructedDistance(a, b geom.Point) (float64, Stats, error) {
	if s.e.cache != nil {
		dists, st, err := s.batchViaCache(s.e.cache, a, []geom.Point{b})
		// One pair is one distance computation, however many enlargement
		// rounds the batch expansion needed to settle it.
		st.DistComputations = min(st.DistComputations, 1)
		if err != nil {
			return 0, st, err
		}
		return dists[0], st, nil
	}
	return s.obstructedDistanceLocal(a, b)
}

// obstructedDistanceLocal is ObstructedDistance on a fresh query-local
// graph, the path taken when the engine has no graph cache.
func (s *Session) obstructedDistanceLocal(a, b geom.Point) (_ float64, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	st.Candidates = 1
	for _, p := range [2]geom.Point{a, b} {
		inside, err := s.InsideObstacle(p)
		if err != nil {
			return 0, st, err
		}
		if inside {
			st.FalseHits = 1
			return math.Inf(1), st, nil
		}
	}
	r := a.Dist(b)
	obs, err := s.relevantObstacles(a, r)
	if err != nil {
		return 0, st, err
	}
	g := s.buildGraph(obs)
	na := g.AddTerminal(a)
	nb := g.AddTerminal(b)
	st.DistComputations = 1
	d, err := s.obstructedDistance(g, nb, na, a, r)
	st.GraphNodes, st.GraphEdges = g.NumNodes(), g.NumEdges()
	if err == nil && !math.IsInf(d, 1) {
		st.Results = 1
	} else if err == nil {
		st.FalseHits = 1
	}
	return d, st, err
}
