package main

import (
	"context"
	"math"
	"sort"
	"time"

	obstacles "repro"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/visgraph"
)

// knn-city: |O| = 10,000 street obstacles, |P| = 20,000 boundary entities,
// two closed-loop clients issuing k = 8 nearest-neighbour queries at query
// points drawn as in the paper's Section 7. The visibility-graph kernel does
// nearly all the work; the graph cache, the coalescer and the WAL do none.
const (
	knnObstacles = 10000
	knnEntities  = 20000
	knnK         = 8
	knnPool      = 200 // the city's query workload, the paper's workload size
	knnChecked   = 4   // queries whose answers are checked pair by pair
	knnExact     = 30  // queries in the exact-count pass
	knnReplay    = 10  // queries in the kernel replay
	knnBlock     = 8   // operations per block of the traced run
)

func runKNNCity(cfg runConfig) (*report, error) {
	world := dataset.Generate(dataset.DefaultConfig(worldSeed, knnObstacles))
	ents := world.Entities(world.EntityRand(1), knnEntities)
	// The queries are a fixed 200-query workload of the city, drawn as in
	// the paper's Section 7; the seed orders it, and a timed run makes
	// whole passes over it. A kNN query's cost has a heavy tail (p98 is
	// ~50x p50), and with fresh queries per seed the few slow ones that
	// landed in a run moved reads_per_s between 23.5 and 30.3 across four
	// seeds.
	pool := world.Queries(trafficRand(worldSeed, 2), knnPool)
	order := trafficRand(cfg.seed, 2).Perm(knnPool)
	queries := make([]geom.Point, 0, len(order))
	for _, i := range order {
		queries = append(queries, pool[i])
	}
	rep := newReport()
	base := baseHeap()

	setup := func() (*obstacles.Database, error) {
		db, err := obstacles.NewDatabaseFromRects(world.Rects, obstacles.DefaultOptions())
		if err != nil {
			return nil, err
		}
		return db, db.AddDataset("P", ents)
	}
	teardown := func(db *obstacles.Database) { db.Close() }
	read := func(db *obstacles.Database, t *tally, traced bool, j int) {
		inProcess(t, opRead, traced, func(ctx context.Context) error {
			_, err := db.NearestNeighbors(ctx, "P", queries[j%len(queries)], knnK)
			return err
		})
	}

	var db *obstacles.Database
	var err error
	if !cfg.traced {
		if db, err = timeSetups(rep, setup, teardown); err != nil {
			return nil, err
		}
		t := newTally()
		t.elapsed = closedLoop(0, math.MaxInt, wholePasses(knnPool, cfg.seconds), true, func(j int) { read(db, t, false, j) })
		setLatency(rep, t)
		setThroughput(rep, t)
		setHeap(rep, base)
	} else {
		if db, err = setup(); err != nil {
			return nil, err
		}
		var ex exactCounts
		ex.start()
		for _, q := range queries[:knnExact] {
			var qs obstacles.QueryStats
			if _, err := db.NearestNeighbors(context.Background(), "P", q, knnK, obstacles.WithStats(&qs)); err != nil {
				return nil, err
			}
			ex.add(qs)
		}
		ex.stop()
		ex.report(rep)
		replayKernel(rep, world, ents, queries[:knnReplay])
		before := db.GraphCacheStats()
		plain, traced := pairedBlocks(cfg.seconds, knnBlock, func(lo, hi int, tr bool, t *tally) {
			t.elapsed += closedLoop(lo, hi, always, true, func(j int) { read(db, t, tr, j) })
		})
		setCache(rep, before, db.GraphCacheStats(), plain.attempted+traced.attempted)
		setTraced(rep, plain, traced)
	}
	defer db.Close()
	for _, q := range queries[:knnChecked] {
		checkKNN(rep, db, q)
	}
	return rep, nil
}

// checkKNN recomputes one query and checks its answer: k neighbours, in
// ascending order, none closer than its Euclidean distance, each equal to
// the per-pair obstructed distance.
func checkKNN(rep *report, db *obstacles.Database, q obstacles.Point) {
	ctx := context.Background()
	nbs, err := db.NearestNeighbors(ctx, "P", q, knnK)
	if err != nil {
		rep.fail("kNN at %v: %v", q, err)
		return
	}
	if len(nbs) != knnK {
		rep.fail("kNN at %v returned %d neighbours, want %d", q, len(nbs), knnK)
	}
	for i, nb := range nbs {
		if i > 0 && nb.Distance < nbs[i-1].Distance {
			rep.fail("kNN at %v is not sorted at rank %d", q, i)
		}
		if nb.Distance < q.Dist(nb.Point)-1e-9 {
			rep.fail("kNN at %v: neighbour %d at %v is closer than its Euclidean distance %v", q, nb.ID, nb.Distance, q.Dist(nb.Point))
		}
		d, err := db.ObstructedDistance(ctx, q, nb.Point)
		if err != nil || !sameDist(d, nb.Distance) {
			rep.fail("kNN at %v: neighbour %d at %v, per-pair distance %v (%v)", q, nb.ID, nb.Distance, d, err)
		}
	}
}

// sameDist reports whether two distances agree up to floating-point noise.
func sameDist(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// replayKernel times the visibility-graph kernel in isolation. For each
// query it cuts the obstacles within the query's k-th Euclidean neighbour
// radius from the world's polygons, builds their visibility graph, adds
// the query and its k Euclidean neighbours as terminals, expands Dijkstra
// from the query over the whole graph, and checks the query's sight line
// to each neighbour. Times are per call, averaged over the queries.
func replayKernel(rep *report, world *dataset.World, ents []geom.Point, queries []geom.Point) {
	var build, terminal, expand, visible float64
	for _, q := range queries {
		dists := make([]float64, len(ents))
		idx := make([]int, len(ents))
		for i, p := range ents {
			dists[i], idx[i] = q.Dist(p), i
		}
		sort.Slice(idx, func(a, b int) bool { return dists[idx[a]] < dists[idx[b]] })
		near := idx[:knnK]
		radius := dists[near[knnK-1]]
		var obs []visgraph.Obstacle
		for i, pg := range world.Polys {
			if pg.IntersectsCircle(q, radius) {
				obs = append(obs, visgraph.Obstacle{ID: int64(i), Poly: pg})
			}
		}
		start := time.Now()
		g := visgraph.Build(visgraph.Options{UseSweep: true}, obs)
		build += us(time.Since(start))

		start = time.Now()
		src := g.AddTerminal(q)
		for _, i := range near {
			g.AddTerminal(ents[i])
		}
		terminal += us(time.Since(start)) / float64(knnK+1)

		start = time.Now()
		g.Expand(src, math.Inf(1), func(visgraph.NodeID, float64) bool { return true })
		expand += us(time.Since(start))

		const rounds = 20
		start = time.Now()
		for r := 0; r < rounds; r++ {
			for _, i := range near {
				g.Visible(q, ents[i])
			}
		}
		visible += us(time.Since(start)) / float64(rounds*knnK)
	}
	n := float64(len(queries))
	rep.set("visgraph.replay_build_us", build/n)
	rep.set("visgraph.replay_terminal_us", terminal/n)
	rep.set("visgraph.replay_expand_us", expand/n)
	rep.set("visgraph.replay_visible_us", visible/n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
