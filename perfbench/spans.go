package main

import (
	"sort"

	"repro/internal/telemetry"
)

// node is one span of a traced operation; start and end are microseconds
// from a common origin.
type node struct {
	name       string
	start, end int64
	children   []*node
}

// fromSnapshot converts a recorded span tree; offsets stay relative to the
// trace's start.
func fromSnapshot(s *telemetry.SpanSnapshot) *node {
	n := &node{name: s.Name, start: s.StartMicros}
	n.end = n.start + s.DurationMicros
	for _, c := range s.Children {
		n.children = append(n.children, fromSnapshot(c))
	}
	return n
}

// nest re-parents, at every level, a span whose interval lies inside a
// sibling's interval under that sibling. The program records some stages
// as siblings although one runs inside the other: the WAL fsync inside the
// WAL append, the append inside a group-commit leader's park, a coalescer
// leader's lead inside its park. Nesting them makes self times disjoint, so
// they sum to the root's duration.
func nest(n *node) {
	// slack absorbs the microsecond truncation of recorded offsets.
	const slack = 1
	kids := n.children
	sort.SliceStable(kids, func(i, j int) bool {
		if kids[i].start != kids[j].start {
			return kids[i].start < kids[j].start
		}
		return kids[i].end > kids[j].end
	})
	var top []*node
	for _, c := range kids {
		placed := false
		for k := len(top) - 1; k >= 0; k-- {
			if t := top[k]; c.start >= t.start-slack && c.end <= t.end+slack {
				t.children = append(t.children, c)
				placed = true
				break
			}
		}
		if !placed {
			top = append(top, c)
		}
	}
	n.children = top
	for _, c := range top {
		// Start and duration are truncated to microseconds separately, so
		// a child can overhang its parent by one; clip it.
		c.start, c.end = max(c.start, n.start), min(c.end, n.end)
		c.end = max(c.end, c.start)
		nest(c)
	}
}

// selfTimes adds each span's self time — its duration minus the union of
// its children's intervals, clipped to the span — to acc under the span's
// name, and returns the sum it added.
func selfTimes(n *node, acc map[string]int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(n.children))
	for _, c := range n.children {
		a, b := max(c.start, n.start), min(c.end, n.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	self := n.end - n.start - covered
	acc[n.name] += self
	total := self
	for _, c := range n.children {
		total += selfTimes(c, acc)
	}
	return total
}
