package mpc

import (
	"fmt"
	"slices"
	"sort"
)

// Rec is the record type moved by the Section 5 tools: a lexicographically
// ordered triple of words (e.g. (u,v,·) for directed edges, (u,c,·) for
// list entries, (i,a,tag) for tagged set elements).
type Rec [3]uint64

func recLess(a, b Rec) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

func recCmp(a, b Rec) int {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Dist is a distributed collection of records: Parts[i] lives on machine
// i. The tools redistribute records between parts on the runtime's
// engine pool — local phases run machine-sharded across the workers, and
// the IO they charge is accumulated per worker and merged by sum — while
// charging the runtime for every round and checking every machine's
// load.
type Dist struct {
	Parts [][]Rec
}

// NewDist distributes records round-robin over the runtime's machines
// (an arbitrary initial placement, as the model allows adversarial
// placement).
func NewDist(rt *Runtime, recs []Rec) (*Dist, error) {
	d := &Dist{Parts: make([][]Rec, rt.M)}
	for i := 0; i < rt.M && i < len(recs); i++ {
		d.Parts[i] = make([]Rec, 0, (len(recs)-i+rt.M-1)/rt.M)
	}
	for j, r := range recs {
		m := j % rt.M
		d.Parts[m] = append(d.Parts[m], r)
	}
	if err := rt.CheckMemory(d.loads()); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Dist) loads() []int {
	l := make([]int, len(d.Parts))
	for i, p := range d.Parts {
		l[i] = 3 * len(p)
	}
	return l
}

// Sort sorts the distributed records lexicographically (Definition 5.1)
// with deterministic regular sampling (PSRS), the constant-round
// BSP/MapReduce sorting of [GSZ11, Goo99]: local sort, M−1 regular
// samples per machine to machine 0, splitter broadcast, bucket
// redistribution, local merge. Requires M² samples and the buckets to
// fit in S, which holds in the model's parameter regime.
//
// Every phase runs machine-sharded on the runtime's engine pool: the
// local sorts in parallel, and the redistribution as cut-point bulk
// moves (each locally sorted part is split by binary search on the
// splitters, so records travel as contiguous runs, not one by one) with
// the per-machine IO accounting accumulated by the shard workers and
// merged by sum — bit-identical to a sequential redistribution.
func (d *Dist) Sort(rt *Runtime) error {
	m := rt.M
	pool := rt.Pool()
	pool.ForEach(func(wid, lo, hi int) {
		for i := lo; i < hi; i++ {
			slices.SortFunc(d.Parts[i], recCmp)
		}
	})
	// Regular samples to machine 0.
	var samples []Rec
	ioSample := make([]int, m)
	for i, p := range d.Parts {
		take := m - 1
		for s := 1; s <= take; s++ {
			idx := s * len(p) / (take + 1)
			if idx < len(p) {
				samples = append(samples, p[idx])
				ioSample[i] += 3
				ioSample[0] += 3
			}
		}
	}
	if err := rt.ChargeRound(ioSample); err != nil {
		return err
	}
	if 3*len(samples) > rt.S {
		return fmt.Errorf("mpc: %d sort samples exceed S = %d at machine 0", len(samples), rt.S)
	}
	slices.SortFunc(samples, recCmp)
	splitters := make([]Rec, 0, m-1)
	for s := 1; s < m; s++ {
		idx := s * len(samples) / m
		if idx < len(samples) {
			splitters = append(splitters, samples[idx])
		}
	}
	// Broadcast splitters (1 round).
	if err := rt.ChargeRound(rt.UniformIO(3 * len(splitters))); err != nil {
		return err
	}
	// Redistribute into buckets (1 round). Each machine's sorted part
	// falls into at most len(splitters)+1 contiguous runs; cuts[i][b] is
	// the start of machine i's run for bucket b.
	nb := len(splitters) + 1
	cuts := make([][]int, m)
	ioW := make([][]int, pool.Shards())
	pool.ForEach(func(wid, lo, hi int) {
		io := make([]int, m)
		ioW[wid] = io
		for i := lo; i < hi; i++ {
			p := d.Parts[i]
			c := make([]int, nb+1)
			for b := 1; b < nb; b++ {
				spl := splitters[b-1]
				c[b] = sort.Search(len(p), func(j int) bool { return !recLess(p[j], spl) })
			}
			c[nb] = len(p)
			cuts[i] = c
			for b := 0; b < nb; b++ {
				words := 3 * (c[b+1] - c[b])
				io[i] += words
				io[b] += words
			}
		}
	})
	ioRedist := make([]int, m)
	for _, io := range ioW {
		for i, w := range io {
			ioRedist[i] += w
		}
	}
	if err := rt.ChargeRound(ioRedist); err != nil {
		return err
	}
	buckets := make([][]Rec, m)
	pool.ForEach(func(wid, lo, hi int) {
		var runs [][]Rec
		for b := lo; b < hi && b < nb; b++ {
			runs = runs[:0]
			total := 0
			for i := 0; i < m; i++ {
				if r := d.Parts[i][cuts[i][b]:cuts[i][b+1]]; len(r) > 0 {
					runs = append(runs, r)
					total += len(r)
				}
			}
			if total == 0 {
				continue
			}
			buckets[b] = mergeRuns(runs, total)
		}
	})
	d.Parts = buckets
	return rt.CheckMemory(d.loads())
}

// mergeRuns k-way-merges sorted runs into one sorted slice of the given
// total length using an index min-heap over the run heads — O(total·log
// k) comparisons instead of re-sorting the concatenation. Equal records
// are identical triples, so heap tie order cannot affect the output.
func mergeRuns(runs [][]Rec, total int) []Rec {
	out := make([]Rec, 0, total)
	if len(runs) == 1 {
		return append(out, runs[0]...)
	}
	heap := make([]int, len(runs))
	for i := range heap {
		heap[i] = i
	}
	less := func(a, b int) bool { return recLess(runs[heap[a]][0], runs[heap[b]][0]) }
	sift := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && less(l, small) {
				small = l
			}
			if r < len(heap) && less(r, small) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		sift(i)
	}
	for len(heap) > 0 {
		top := heap[0]
		out = append(out, runs[top][0])
		runs[top] = runs[top][1:]
		if len(runs[top]) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		sift(0)
	}
	return out
}

// IsSorted reports whether the records are globally sorted across the
// machine order.
func (d *Dist) IsSorted() bool {
	var prev *Rec
	for _, p := range d.Parts {
		for i := range p {
			if prev != nil && recLess(p[i], *prev) {
				return false
			}
			prev = &p[i]
		}
	}
	return true
}

// PrefixSums solves the prefix-sums problem of Definition 5.2 on the
// sorted collection with an associative operation over word 2 of the
// records: afterwards record j's word 2 holds op(x_1,…,x_j). Constant
// rounds: machine-local partials (computed machine-sharded on the
// pool), machine-0 scan of M values, offset broadcast and local apply.
func (d *Dist) PrefixSums(rt *Runtime, op func(a, b uint64) uint64, identity uint64) error {
	m := rt.M
	pool := rt.Pool()
	partials := make([]uint64, m)
	pool.ForEach(func(wid, lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := identity
			for _, r := range d.Parts[i] {
				acc = op(acc, r[2])
			}
			partials[i] = acc
		}
	})
	// Partials to machine 0 and offsets back: 2 rounds of M words.
	if 3*m > rt.S {
		return fmt.Errorf("mpc: %d machine partials exceed S", m)
	}
	if err := rt.ChargeRounds(2, rt.UniformIO(3)); err != nil {
		return err
	}
	offsets := make([]uint64, m)
	acc := identity
	for i := 0; i < m; i++ {
		offsets[i] = acc
		acc = op(acc, partials[i])
	}
	pool.ForEach(func(wid, lo, hi int) {
		for i := lo; i < hi; i++ {
			run := offsets[i]
			p := d.Parts[i]
			for j := range p {
				run = op(run, p[j][2])
				p[j][2] = run
			}
		}
	})
	return nil
}

// runInfo summarizes one machine's part for the boundary-carry passes:
// the keys and lengths of its leading and trailing runs of equal keys.
type runInfo struct {
	n                int
	headKey, tailKey uint64
	headRun, tailRun int
}

func (ri runInfo) allSame() bool { return ri.headRun == ri.n }

// runInfoOf scans p once (p sorted by key).
func runInfoOf(p []Rec) runInfo {
	ri := runInfo{n: len(p)}
	if len(p) == 0 {
		return ri
	}
	ri.headKey = p[0][0]
	for ri.headRun < len(p) && p[ri.headRun][0] == ri.headKey {
		ri.headRun++
	}
	ri.tailKey = p[len(p)-1][0]
	j := len(p)
	for j > 0 && p[j-1][0] == ri.tailKey {
		j--
	}
	ri.tailRun = len(p) - j
	return ri
}

// forwardCarries returns, per machine, how many records with its head
// key sit in the contiguous same-key run immediately preceding it —
// what the forward boundary records of Corollary 5.2 communicate.
func forwardCarries(info []runInfo) []uint64 {
	carry := make([]uint64, len(info))
	var prevKey uint64
	prevRun := uint64(0)
	started := false
	for i, ri := range info {
		if ri.n == 0 {
			continue
		}
		c := uint64(0)
		if started && ri.headKey == prevKey {
			c = prevRun
		}
		carry[i] = c
		if ri.allSame() && c > 0 {
			prevRun = c + uint64(ri.n)
		} else {
			prevRun = uint64(ri.tailRun)
		}
		prevKey = ri.tailKey
		started = true
	}
	return carry
}

// backwardCarries is the mirror pass: how many records with machine i's
// tail key sit in the run immediately following it.
func backwardCarries(info []runInfo) []uint64 {
	carry := make([]uint64, len(info))
	var prevKey uint64
	prevRun := uint64(0)
	started := false
	for i := len(info) - 1; i >= 0; i-- {
		ri := info[i]
		if ri.n == 0 {
			continue
		}
		c := uint64(0)
		if started && ri.tailKey == prevKey {
			c = prevRun
		}
		carry[i] = c
		if ri.allSame() && c > 0 {
			prevRun = c + uint64(ri.n)
		} else {
			prevRun = uint64(ri.headRun)
		}
		prevKey = ri.headKey
		started = true
	}
	return carry
}

// GroupRanks assumes the collection is sorted by key (word 0) and fills
// word 2 of every record with its 0-based rank within its key group
// (Corollary 5.2). Constant rounds: local ranks are computed
// machine-sharded, then one boundary record per machine travels forward
// (1 accounted round) and the carries are applied machine-sharded.
func (d *Dist) GroupRanks(rt *Runtime) error {
	// One boundary record per machine moves forward: 1 round.
	if err := rt.ChargeRound(rt.UniformIO(3)); err != nil {
		return err
	}
	pool := rt.Pool()
	info := make([]runInfo, len(d.Parts))
	pool.ForEach(func(wid, lo, hi int) {
		for i := lo; i < hi; i++ {
			p := d.Parts[i]
			var key uint64
			count := uint64(0)
			for j := range p {
				if j == 0 || p[j][0] != key {
					key = p[j][0]
					count = 0
				}
				p[j][2] = count
				count++
			}
			info[i] = runInfoOf(p)
		}
	})
	carry := forwardCarries(info)
	pool.ForEach(func(wid, lo, hi int) {
		for i := lo; i < hi; i++ {
			if carry[i] == 0 {
				continue
			}
			p := d.Parts[i]
			for j := 0; j < info[i].headRun; j++ {
				p[j][2] += carry[i]
			}
		}
	})
	return nil
}

// GroupSizes assumes sorting by key (word 0) and returns the size of
// each key's group delivered to every record's machine via the
// aggregation-tree structure (Definition 5.4): word 2 of each record is
// set to its group's size. Constant rounds. Group sizes are derived
// machine-sharded from the run structure plus the forward/backward
// boundary carries — no global table, so the local computation stays
// O(records per machine) per worker.
func (d *Dist) GroupSizes(rt *Runtime) error {
	if err := d.GroupRanks(rt); err != nil {
		return err
	}
	// Reverse ranks via a backward boundary pass (1 round), then size =
	// rank + reverse rank + 1, entirely local.
	if err := rt.ChargeRound(rt.UniformIO(3)); err != nil {
		return err
	}
	// Deliver boundary-spanning sizes down the trees (depth rounds).
	if err := rt.ChargeRounds(rt.AggDepth(), rt.UniformIO(3)); err != nil {
		return err
	}
	pool := rt.Pool()
	info := make([]runInfo, len(d.Parts))
	pool.ForEach(func(wid, lo, hi int) {
		for i := lo; i < hi; i++ {
			info[i] = runInfoOf(d.Parts[i])
		}
	})
	before := forwardCarries(info)
	after := backwardCarries(info)
	pool.ForEach(func(wid, lo, hi int) {
		for i := lo; i < hi; i++ {
			p := d.Parts[i]
			if len(p) == 0 {
				continue
			}
			ri := info[i]
			if ri.allSame() {
				sz := before[i] + uint64(ri.n) + after[i]
				for j := range p {
					p[j][2] = sz
				}
				continue
			}
			headSz := before[i] + uint64(ri.headRun)
			for j := 0; j < ri.headRun; j++ {
				p[j][2] = headSz
			}
			// Internal runs are wholly on this machine.
			for a := ri.headRun; a < ri.n-ri.tailRun; {
				b := a + 1
				for b < ri.n && p[b][0] == p[a][0] {
					b++
				}
				for j := a; j < b; j++ {
					p[j][2] = uint64(b - a)
				}
				a = b
			}
			tailSz := uint64(ri.tailRun) + after[i]
			for j := ri.n - ri.tailRun; j < ri.n; j++ {
				p[j][2] = tailSz
			}
		}
	})
	return nil
}

// SetDifference solves Definition 5.3: given sets A_i (records (i,a))
// and multisets B_i (records (i,b)), it returns for every A-record
// whether its value appears in B_i. Implemented by sorting the tagged
// union (B-tags sort before A-tags within an equal (i,a)) and a
// boundary-carrying scan — constant rounds.
func SetDifference(rt *Runtime, a, b []Rec) (map[Rec]bool, error) {
	const tagB, tagA = 0, 1
	tagged := make([]Rec, 0, len(a)+len(b))
	for _, r := range b {
		tagged = append(tagged, Rec{r[0], r[1], tagB})
	}
	for _, r := range a {
		tagged = append(tagged, Rec{r[0], r[1], tagA})
	}
	d, err := NewDist(rt, tagged)
	if err != nil {
		return nil, err
	}
	if err := d.Sort(rt); err != nil {
		return nil, err
	}
	// Boundary scan: last (i,a,sawB) of each machine moves forward.
	if err := rt.ChargeRound(rt.UniformIO(3)); err != nil {
		return nil, err
	}
	result := map[Rec]bool{}
	var curKey Rec
	sawB := false
	started := false
	for _, p := range d.Parts {
		for _, r := range p {
			k := Rec{r[0], r[1], 0}
			if !started || k != curKey {
				curKey = k
				sawB = false
				started = true
			}
			if r[2] == tagB {
				sawB = true
			} else {
				result[Rec{r[0], r[1], 0}] = sawB
			}
		}
	}
	return result, nil
}
