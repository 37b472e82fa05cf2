package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	obstacles "repro"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// durable-churn: Open on a fresh, checkpointed file built at set-up from
// the |O| = 1,000, |P| = 2,000 world, default group-commit and
// auto-checkpoint settings, two closed-loop clients. Of each client's
// operations 90% are Range queries with r = 200; every tenth is a write,
// cycling insert a point, delete it, add a small obstacle, remove it, so
// live counts end where they started. Writes run beside reads: WAL append
// and fsync, group commit, catalog deltas and copy-on-write page copies
// all work, while the visibility graph does little.
const (
	churnObstacles  = 1000
	churnEntities   = 2000
	churnRadius     = 200
	churnWriteEvery = 10    // every tenth operation of a client is a write
	churnCycle      = 4     // writes per insert/delete/add/remove cycle
	churnQueries    = 50000 // read points, reused cyclically
	churnCycles     = 5000  // write parameters per client, reused cyclically
	churnExact      = 200   // reads in the exact-count pass
	churnChecked    = 20    // reads compared with an in-memory database
	// churnBlock is one write cycle per client, so a traced run's block,
	// replayed, leaves the live counts where they were.
	churnBlock    = clients * churnWriteEvery * churnCycle
	churnRectSide = 4
)

// churnClient is one client's write cycle: where its points and obstacles
// go, and the ids of the ones currently live.
type churnClient struct {
	points  []geom.Point
	rects   []geom.Rect
	pointID int64
	obstID  int64
	pending int // cycle steps done and not yet undone: 0, 1 (point) or 3 (obstacle)
}

func churnClients(world *dataset.World, rng *rand.Rand) []*churnClient {
	u := world.Universe()
	out := make([]*churnClient, clients)
	for c := range out {
		cl := &churnClient{}
		// Each client writes in its own vertical strip, so the two
		// clients' obstacles never overlap each other.
		lo, w := float64(c)*u/clients, u/clients
		for len(cl.rects) < churnCycles {
			x, y := lo+rng.Float64()*(w-churnRectSide), rng.Float64()*(u-churnRectSide)
			r := geom.R(x, y, x+churnRectSide, y+churnRectSide)
			clear := true
			for _, o := range world.Rects {
				if o.Intersects(r.Expand(1)) {
					clear = false
					break
				}
			}
			if clear {
				cl.rects = append(cl.rects, r)
				cl.points = append(cl.points, world.BoundaryPoint(rng))
			}
		}
		out[c] = cl
	}
	return out
}

// step runs the client's write number w: insert a point, delete it, add
// an obstacle, remove it.
func (cl *churnClient) step(ctx context.Context, db *obstacles.Database, w int) error {
	cycle := (w / churnCycle) % churnCycles
	switch w % churnCycle {
	case 0:
		ids, err := db.InsertPointsContext(ctx, "P", cl.points[cycle])
		if err != nil {
			return err
		}
		cl.pointID, cl.pending = ids[0], 1
	case 1:
		if err := db.DeletePointsContext(ctx, "P", cl.pointID); err != nil {
			return err
		}
		cl.pending = 0
	case 2:
		ids, err := db.AddObstacleRectsContext(ctx, cl.rects[cycle])
		if err != nil {
			return err
		}
		cl.obstID, cl.pending = ids[0], 3
	default:
		if err := db.RemoveObstaclesContext(ctx, cl.obstID); err != nil {
			return err
		}
		cl.pending = 0
	}
	return nil
}

// undo removes whatever the client's unfinished cycle left live.
func (cl *churnClient) undo(db *obstacles.Database) error {
	ctx := context.Background()
	var err error
	switch cl.pending {
	case 1:
		err = db.DeletePointsContext(ctx, "P", cl.pointID)
	case 3:
		err = db.RemoveObstaclesContext(ctx, cl.obstID)
	}
	cl.pending = 0
	return err
}

// churnSystem is the program under test: a durable database in a temporary
// directory under .bench_build.
type churnSystem struct {
	db   *obstacles.Database
	path string
}

func runDurableChurn(cfg runConfig) (*report, error) {
	world := dataset.Generate(dataset.DefaultConfig(worldSeed, churnObstacles))
	ents := world.Entities(world.EntityRand(1), churnEntities)
	queries := world.Queries(trafficRand(cfg.seed, 2), churnQueries)
	cls := churnClients(world, trafficRand(cfg.seed, 3))
	rep := newReport()
	base := baseHeap()

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "churn-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	n := 0
	setup := func() (*churnSystem, error) {
		n++
		path := filepath.Join(dir, fmt.Sprintf("city-%d.obs", n))
		db, err := obstacles.Open(path, obstacles.DefaultOptions())
		if err != nil {
			return nil, err
		}
		if _, err := db.AddObstacleRects(world.Rects...); err != nil {
			db.Close()
			return nil, err
		}
		if err := db.AddDataset("P", ents); err != nil {
			db.Close()
			return nil, err
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
		db, err = obstacles.Open(path, obstacles.DefaultOptions())
		return &churnSystem{db: db, path: path}, err
	}
	teardown := func(s *churnSystem) {
		s.db.Close()
		os.Remove(s.path)
		os.Remove(s.path + ".wal")
	}
	// op runs operation j: client j%clients's (j/clients)-th operation.
	op := func(db *obstacles.Database, t *tally, traced bool, j int) {
		c, l := j%clients, j/clients
		if l%churnWriteEvery != churnWriteEvery-1 {
			inProcess(t, opRead, traced, func(ctx context.Context) error {
				_, err := db.Range(ctx, "P", queries[j%len(queries)], churnRadius)
				return err
			})
			return
		}
		inProcess(t, opWrite, traced, func(ctx context.Context) error {
			return cls[c].step(ctx, db, l/churnWriteEvery)
		})
	}

	var sys *churnSystem
	if !cfg.traced {
		if sys, err = timeSetups(rep, setup, teardown); err != nil {
			return nil, err
		}
		t := newTally()
		t.elapsed = closedLoop(0, math.MaxInt, until(time.Now().Add(cfg.seconds)), false, func(j int) { op(sys.db, t, false, j) })
		setLatency(rep, t)
		setThroughput(rep, t)
		setHeap(rep, base)
	} else {
		if sys, err = setup(); err != nil {
			return nil, err
		}
		var ex exactCounts
		ex.start()
		for j := 0; ex.n < churnExact; j++ {
			if (j/clients)%churnWriteEvery == churnWriteEvery-1 {
				continue
			}
			var qs obstacles.QueryStats
			if _, err := sys.db.Range(context.Background(), "P", queries[j], churnRadius, obstacles.WithStats(&qs)); err != nil {
				return nil, err
			}
			ex.add(qs)
		}
		ex.stop()
		ex.report(rep)
		before, cowBefore, wcharBefore := sys.db.PersistStats(), sys.db.Metrics().MVCC.COWPageCopies, wchar()
		cacheBefore := sys.db.GraphCacheStats()
		plain, traced := pairedBlocks(cfg.seconds, churnBlock, func(lo, hi int, tr bool, t *tally) {
			t.elapsed += closedLoop(lo, hi, always, false, func(j int) { op(sys.db, t, tr, j) })
		})
		after := sys.db.PersistStats()
		writes := len(plain.lat[opWrite]) + len(traced.lat[opWrite])
		if writes > 0 {
			rep.set("db.cow_copies_per_write", float64(sys.db.Metrics().MVCC.COWPageCopies-cowBefore)/float64(writes))
			if wcharBefore >= 0 {
				rep.set("storage.write_bytes_per_write", float64(wchar()-wcharBefore)/float64(writes))
			}
		}
		if f := after.Fsyncs - before.Fsyncs; f > 0 {
			rep.set("wal.commits_per_fsync", float64(after.Commits-before.Commits)/float64(f))
		}
		setCache(rep, cacheBefore, sys.db.GraphCacheStats(), plain.attempted+traced.attempted)
		setTraced(rep, plain, traced)
	}
	for _, cl := range cls {
		if err := cl.undo(sys.db); err != nil {
			return nil, fmt.Errorf("finishing a write cycle: %w", err)
		}
	}
	checkChurn(rep, sys, world, ents, queries[:churnChecked])
	return rep, nil
}

// checkChurn closes the churned file and reopens it: the live counts must
// be the starting ones, a scrub must find every page checksum intact, and
// Range answers must equal an in-memory database built from the same
// world.
func checkChurn(rep *report, sys *churnSystem, world *dataset.World, ents, queries []geom.Point) {
	if err := sys.db.Close(); err != nil {
		rep.fail("closing the churned database: %v", err)
		return
	}
	db, err := obstacles.Open(sys.path, obstacles.DefaultOptions())
	if err != nil {
		rep.fail("reopening the churned database: %v", err)
		return
	}
	defer db.Close()
	if got := db.NumObstacles(); got != len(world.Rects) {
		rep.fail("reopened database has %d obstacles, started with %d", got, len(world.Rects))
	}
	if got, err := db.DatasetLen("P"); err != nil || got != len(ents) {
		rep.fail("reopened database has %d entities (%v), started with %d", got, err, len(ents))
	}
	ctx := context.Background()
	scrub, err := db.Scrub(ctx)
	if err != nil || !scrub.Clean() {
		rep.fail("scrub of the churned file: %+v (%v)", scrub, err)
	}
	mem, err := obstacles.NewDatabaseFromRects(world.Rects, obstacles.DefaultOptions())
	if err == nil {
		err = mem.AddDataset("P", ents)
	}
	if err != nil {
		rep.fail("building the in-memory reference: %v", err)
		return
	}
	for _, q := range queries {
		got, err1 := db.Range(ctx, "P", q, churnRadius)
		want, err2 := mem.Range(ctx, "P", q, churnRadius)
		if err1 != nil || err2 != nil || len(got) != len(want) {
			rep.fail("range at %v: %d results (%v), in memory %d (%v)", q, len(got), err1, len(want), err2)
			continue
		}
		for i := range got {
			if !sameDist(got[i].Distance, want[i].Distance) || got[i].Distance > churnRadius+1e-9 ||
				got[i].Distance < q.Dist(got[i].Point)-1e-9 || (i > 0 && got[i].Distance < got[i-1].Distance) {
				rep.fail("range at %v rank %d: %v, in memory %v", q, i, got[i].Distance, want[i].Distance)
			}
		}
	}
}

// wchar returns the bytes this process has passed to write system calls
// (/proc/self/io), or -1 where the kernel does not expose them.
func wchar() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return -1
}
