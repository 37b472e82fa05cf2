package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	obstacles "repro"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// serve-hotspot: loopback HTTP to an in-process server with default
// settings (coalescer on) over |O| = 1,000 and |P| = 2,000. The load is
// open loop at a fixed rate over two connections: 70% /v1/distance, 15%
// /v1/path and 15% /nearest with k = 8, both endpoints within ±300 of one
// of four seeded hot centres, 70% of requests at the first. Repeated
// regions are what the server's coalescer and singleflight and the
// engine's graph cache exploit; the ~16 hot 512-unit coalescer cells
// outnumber the 8-entry graph cache.
const (
	serveObstacles = 1000
	serveEntities  = 2000
	serveRate      = 14 // requests per second; see serveOpsFor
	serveHotRadius = 300
	servePool      = 504 // the city's request workload: one 36-second run at serveRate
	serveChecked   = 40  // leading requests whose responses are checked
	serveExact     = 40  // requests in the exact-count pass
	serveBlock     = 40  // requests per block of the traced run
)

type serveKind int

const (
	reqDistance serveKind = iota
	reqPath
	reqNearest
)

var routeName = [3]string{"distance", "path", "nearest"}

var errNotSent = errors.New("request was due before the deadline but not sent by it")

type serveOp struct {
	kind serveKind
	a, b obstacles.Point // b unused by nearest
}

// hotPoint draws a point within serveHotRadius of c, outside every
// obstacle's interior.
func hotPoint(rng *rand.Rand, world *dataset.World, c geom.Point) geom.Point {
	for {
		p := geom.Pt(c.X+(rng.Float64()*2-1)*serveHotRadius, c.Y+(rng.Float64()*2-1)*serveHotRadius)
		inside := false
		for _, r := range world.Rects {
			if r.ContainsStrict(p) {
				inside = true
				break
			}
		}
		if !inside {
			return p
		}
	}
}

// serveOpsFor draws the city's request sequence. The hot centres and the
// requests belong to the city, like its obstacles, and every run replays
// the sequence from its start. Request cost is bimodal (p50 4 ms, p90
// 170 ms in process) and hinges on the graph cache: with centres or
// requests drawn per seed, saturated throughput ranged from 50 to 235
// requests per second between seeds, and two rotations of one sequence
// settled the cache into states 60% apart in mean latency (33-35 ms
// against 50-57 ms, with 2.5 against 1.9 MB of heap). The rate is a
// quarter of the ~52 requests per second two saturating connections
// sustained: at half of it, queueing behind slow requests moved p50
// between 8 and 476 ms from seed to seed. The centres sit on obstacle
// boundaries, so hot spots follow the data as the paper's query points do.
func serveOpsFor(world *dataset.World, rng *rand.Rand) []serveOp {
	u := world.Universe()
	clamp := func(v float64) float64 { return min(max(v, serveHotRadius), u-serveHotRadius) }
	var centres [4]geom.Point
	for i := range centres {
		c := world.BoundaryPoint(rng)
		centres[i] = geom.Pt(clamp(c.X), clamp(c.Y))
	}
	pool := make([]serveOp, servePool)
	for i := range pool {
		c := centres[0]
		if rng.Float64() >= 0.7 {
			c = centres[1+rng.Intn(3)]
		}
		var k serveKind
		switch x := rng.Float64(); {
		case x < 0.70:
			k = reqDistance
		case x < 0.85:
			k = reqPath
		default:
			k = reqNearest
		}
		pool[i] = serveOp{kind: k, a: hotPoint(rng, world, c)}
		if k != reqNearest {
			pool[i].b = hotPoint(rng, world, c)
		}
	}
	return pool
}

// serveSystem is the program under test: a database behind a server on a
// loopback listener, and the client that talks to it.
type serveSystem struct {
	db     *obstacles.Database
	srv    *server.Server
	base   string
	client *http.Client
	jitter []time.Duration // arrival delay of each request in the sequence

	mu        sync.Mutex
	responses map[int]any // decoded responses of the checked requests
}

// wireTrace is a traced request whose server-side span tree is still to be
// read back from the flight recorder.
type wireTrace struct {
	id string
	rt time.Duration // the client's round trip
}

func runServeHotspot(cfg runConfig) (*report, error) {
	world := dataset.Generate(dataset.DefaultConfig(worldSeed, serveObstacles))
	ents := world.Entities(world.EntityRand(1), serveEntities)
	ops := serveOpsFor(world, trafficRand(worldSeed, 3))
	// The seed draws each request's arrival jitter: a delay of up to 40% of
	// the gap between requests, so arrivals stay in order.
	jitter := make([]time.Duration, servePool)
	rng := trafficRand(cfg.seed, 3)
	for i := range jitter {
		jitter[i] = time.Duration(rng.Float64() * 0.4 * float64(time.Second/serveRate))
	}
	rep := newReport()
	base := baseHeap()

	setup := func(opts obstacles.Options) (*serveSystem, error) {
		db, err := obstacles.NewDatabaseFromRects(world.Rects, opts)
		if err != nil {
			return nil, err
		}
		if err := db.AddDataset("P", ents); err != nil {
			db.Close()
			return nil, err
		}
		srv := server.New(db, server.Config{})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			db.Close()
			return nil, err
		}
		tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
		return &serveSystem{db: db, srv: srv, base: "http://" + srv.Addr(), client: &http.Client{Transport: tr}, jitter: jitter, responses: map[int]any{}}, nil
	}
	teardown := func(s *serveSystem) {
		s.client.CloseIdleConnections()
		s.srv.Shutdown(context.Background())
	}
	// tracedOpts keeps every request's trace in the flight recorder, so
	// the benchmark can read each span tree back.
	plainOpts, tracedOpts := obstacles.DefaultOptions(), obstacles.DefaultOptions()
	tracedOpts.TraceSampleRate = 1

	var systems []*serveSystem
	defer func() {
		for _, s := range systems {
			teardown(s)
		}
	}()
	if !cfg.traced {
		sys, err := timeSetups(rep, func() (*serveSystem, error) { return setup(plainOpts) }, teardown)
		if err != nil {
			return nil, err
		}
		t := newTally()
		n := int(cfg.seconds.Seconds() * serveRate)
		t.elapsed = sys.openLoop(ops, 0, n, time.Now().Add(cfg.seconds), false, t)
		setLatency(rep, t)
		sys.check(rep, ops)
		teardown(sys)
		// Open-loop throughput is the offered rate while the server keeps
		// up, so reads_per_s comes from a saturated pass: on a freshly set
		// up system, both connections send the whole sequence back to
		// back. On the system the open loop had warmed, the pass ran at 67
		// to 88 requests per second across ten seeds, slower the more the
		// graph cache held, and what it held depended on the seed's
		// arrival jitter; from a cold cache every pass made the same cache
		// hits, give or take one.
		if sys, err = setup(plainOpts); err != nil {
			return nil, err
		}
		systems = append(systems, sys)
		b := newTally()
		b.elapsed = closedLoop(0, servePool, always, true, func(j int) {
			start := time.Now()
			done, err := sys.send(ops, j, false, b)
			b.record(opRead, done.Sub(start), err)
		})
		setThroughput(rep, b)
		rep.count(b)
		setHeap(rep, base)
	} else {
		// The exact-count pass runs on a system of its own, so both
		// systems of the paired passes start cold.
		exSys, err := setup(plainOpts)
		if err != nil {
			return nil, err
		}
		var ex exactCounts
		ex.start()
		for _, op := range ops[:serveExact] {
			var qs obstacles.QueryStats
			if _, err := exSys.inProcess(op, obstacles.WithStats(&qs)); err != nil {
				teardown(exSys)
				return nil, err
			}
			ex.add(qs)
		}
		ex.stop()
		ex.report(rep)
		teardown(exSys)
		// The server spans every request and the sample rate is the
		// database's, so the untraced passes go to a second system with
		// default options, as in the timed run. Each system sees every
		// block once, in order, so their caches see the same traffic.
		plainSys, err := setup(plainOpts)
		if err != nil {
			return nil, err
		}
		systems = append(systems, plainSys)
		tracedSys, err := setup(tracedOpts)
		if err != nil {
			return nil, err
		}
		systems = append(systems, tracedSys)
		before := tracedSys.db.GraphCacheStats()
		plain, traced := pairedBlocks(cfg.seconds, serveBlock, func(lo, hi int, tr bool, t *tally) {
			sys := plainSys
			if tr {
				sys = tracedSys
			}
			t.elapsed += sys.openLoop(ops, lo, hi, time.Now().Add(time.Hour), tr, t)
		})
		setCache(rep, before, tracedSys.db.GraphCacheStats(), traced.attempted)
		setTraced(rep, plain, traced)
		if d := plain.distances + traced.distances; d > 0 {
			rep.set("server.coalesce_ride_ratio", float64(plain.rode+traced.rode)/float64(d))
		}
		if len(plain.lag) > 0 {
			lag, _ := percentile(plain.lag, 99)
			rep.set("loadgen.lag_p99_ms", lag)
		}
	}
	for _, s := range systems {
		s.check(rep, ops)
	}
	return rep, nil
}

// openLoop sends requests lo..hi-1 on schedule, request j due at
// (j-lo)/serveRate seconds after the start plus its jitter, over at most
// two connections: when both are busy a due request waits, and its latency
// counts from when it was due. Requests due after the deadline are not
// sent. Traced requests' span trees are read back once the phase is over,
// outside its time.
func (s *serveSystem) openLoop(ops []serveOp, lo, hi int, until time.Time, traced bool, t *tally) time.Duration {
	sched := schedule{start: time.Now(), interval: time.Second / serveRate}
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				due := sched.due(j - lo).Add(s.jitter[j%len(s.jitter)])
				if j >= hi || !due.Before(until) {
					return
				}
				if time.Now().After(until) {
					// Due within the run but never sent: the load
					// outran the program, and the request failed.
					t.record(opRead, 0, errNotSent)
					continue
				}
				time.Sleep(time.Until(due))
				sent := time.Now()
				done, err := s.send(ops, j, traced, t)
				lat, lag := openLoopTiming(due, sent, done)
				t.record(opRead, lat, err)
				t.mu.Lock()
				t.lag = append(t.lag, ms(lag))
				t.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(sched.start)
	s.readTraces(t)
	return elapsed
}

// send issues request j and decodes its response, returning when the
// response was read. A traced request carries a traceparent header and is
// queued on t for readTraces.
func (s *serveSystem) send(ops []serveOp, j int, traced bool, t *tally) (time.Time, error) {
	op := ops[j%len(ops)]
	var path string
	var body any
	switch op.kind {
	case reqDistance:
		path, body = "/v1/distance", server.DistanceRequest{A: pt(op.a), B: pt(op.b)}
	case reqPath:
		path, body = "/v1/path", server.PathRequest{A: pt(op.a), B: pt(op.b)}
	default:
		path, body = "/v1/datasets/P/nearest", server.NearestRequest{Q: pt(op.a), K: knnK}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return time.Now(), err
	}
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(raw))
	if err != nil {
		return time.Now(), err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set("traceparent", telemetry.FormatTraceparent(telemetry.NewTraceID(), telemetry.NewSpanID(), true))
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return time.Now(), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		return done, err
	}
	if resp.StatusCode != http.StatusOK {
		return done, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	var out any
	switch op.kind {
	case reqDistance:
		var r server.DistanceResponse
		err = json.Unmarshal(data, &r)
		t.mu.Lock()
		t.distances++
		if r.Coalesced {
			t.rode++
		}
		t.mu.Unlock()
		out = r
	case reqPath:
		var r server.PathResponse
		err = json.Unmarshal(data, &r)
		out = r
	default:
		var r server.NeighborsResponse
		err = json.Unmarshal(data, &r)
		out = r
	}
	if err != nil {
		return done, fmt.Errorf("%s: decoding response: %w", path, err)
	}
	if j < serveChecked {
		s.mu.Lock()
		if _, seen := s.responses[j]; !seen {
			s.responses[j] = out
		}
		s.mu.Unlock()
	}
	if traced {
		t.mu.Lock()
		t.wire = append(t.wire, wireTrace{id: resp.Header.Get("Obs-Trace-Id"), rt: done.Sub(start)})
		t.mu.Unlock()
	}
	return done, nil
}

// readTraces reads the queued requests' server-side span trees back from
// the flight recorder and hangs each under a client span covering the
// round trip, so the client span's self time is the wire overhead.
func (s *serveSystem) readTraces(t *tally) {
	for _, w := range t.wire {
		snap, err := s.serverTrace(w.id)
		if err != nil {
			if t.traceErr == nil {
				t.traceErr = err
			}
			continue
		}
		root := &node{name: "wire", start: 0, end: w.rt.Microseconds()}
		srv := rootNode(snap)
		srv.name = "route:" + srv.name
		root.children = []*node{srv}
		t.recordTrace(opRead, root)
	}
	t.wire = t.wire[:0]
}

// serverTrace fetches a request's recorded span tree. The server records a
// trace when its handler finishes, which can trail the response by a hair.
func (s *serveSystem) serverTrace(id string) (telemetry.TraceSnapshot, error) {
	rec := s.db.TraceRecorder()
	for i := 0; i < 1000; i++ {
		if snap, ok := rec.Get(id); ok {
			return snap, nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return telemetry.TraceSnapshot{}, fmt.Errorf("trace %q never reached the flight recorder", id)
}

func pt(p obstacles.Point) server.Pt { return server.Pt{p.X, p.Y} }

// inProcess runs a request's verb directly on the Database, returning its
// distance (the k-th neighbour's for nearest).
func (s *serveSystem) inProcess(op serveOp, opts ...obstacles.QueryOption) (any, error) {
	ctx := context.Background()
	switch op.kind {
	case reqDistance:
		return s.db.ObstructedDistance(ctx, op.a, op.b, opts...)
	case reqPath:
		path, d, err := s.db.ObstructedPath(ctx, op.a, op.b, opts...)
		return server.PathResponse{Path: wirePath(path), Dist: server.Dist(d)}, err
	default:
		return s.db.NearestNeighbors(ctx, "P", op.a, knnK, opts...)
	}
}

func wirePath(path []obstacles.Point) []server.Pt {
	out := make([]server.Pt, len(path))
	for i, p := range path {
		out[i] = pt(p)
	}
	return out
}

// check compares every recorded response with the same call made in
// process.
func (s *serveSystem) check(rep *report, ops []serveOp) {
	if len(s.responses) == 0 {
		rep.fail("serve-hotspot recorded no responses to check")
	}
	for j, got := range s.responses {
		op := ops[j]
		want, err := s.inProcess(op)
		if err != nil {
			rep.fail("in-process %s %d: %v", routeName[op.kind], j, err)
			continue
		}
		switch op.kind {
		case reqDistance:
			if g := float64(got.(server.DistanceResponse).Dist); !sameDist(g, want.(float64)) {
				rep.fail("distance %d: wire %v, in process %v", j, g, want)
			}
		case reqPath:
			g, w := got.(server.PathResponse), want.(server.PathResponse)
			if !sameDist(float64(g.Dist), float64(w.Dist)) || len(g.Path) < 2 ||
				g.Path[0] != pt(op.a) || g.Path[len(g.Path)-1] != pt(op.b) {
				rep.fail("path %d: wire %v over %d points, in process %v", j, g.Dist, len(g.Path), w.Dist)
			}
		default:
			g, w := got.(server.NeighborsResponse).Neighbors, want.([]obstacles.Neighbor)
			if len(g) != len(w) {
				rep.fail("nearest %d: wire %d neighbours, in process %d", j, len(g), len(w))
				continue
			}
			for i := range g {
				if !sameDist(g[i].Dist, w[i].Distance) {
					rep.fail("nearest %d rank %d: wire %v, in process %v", j, i, g[i].Dist, w[i].Distance)
				}
			}
		}
	}
}
