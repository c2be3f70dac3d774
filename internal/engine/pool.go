package engine

import (
	"runtime"
	"sort"
	"sync"
)

// forceShards pins the worker/shard count when > 0. Test hook: the
// determinism regressions run the same protocol with 1 and many shards
// and assert bit-identical Stats.
var forceShards int

// SetForceShards pins the shard count of every subsequently created pool
// (0 restores automatic sizing). It is a test hook: production callers
// let the pool size itself from GOMAXPROCS and the endpoint count.
func SetForceShards(n int) { forceShards = n }

// shardCount sizes a pool: one shard per processor (or per configured
// worker when workers > 0), but never fewer than minPerShard endpoints
// per shard — below that the dispatch overhead outweighs the parallelism
// and the pool collapses to the inline sequential path.
func shardCount(n, minPerShard, workers int) int {
	if forceShards > 0 {
		return forceShards
	}
	s := workers
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
	}
	if minPerShard < 1 {
		minPerShard = 1
	}
	if lim := n / minPerShard; s > lim {
		s = lim
	}
	if s < 1 {
		s = 1
	}
	return s
}

// ShardsFor reports the shard count a pool over n endpoints would get
// under the given worker bound (0 = GOMAXPROCS), honoring the test
// hook. Callers that pad per-endpoint arenas at shard boundaries (so
// shards never share cache lines) use it to place the pads where the
// pool will actually cut.
func ShardsFor(n, workers int) int { return shardCount(n, shardMin, workers) }

// WorkerStats is one shard worker's message counters, accumulated
// privately across a run (instead of contending on shared counters per
// message) and folded into a Stats once the workers are quiescent.
// Padded so each worker owns its cache line.
type WorkerStats struct {
	Messages int64
	Words    int64
	MaxWords int
	_        [5]uint64
}

// Note counts one delivered message of the given width.
func (ws *WorkerStats) Note(words int) {
	ws.Messages++
	ws.Words += int64(words)
	if words > ws.MaxWords {
		ws.MaxWords = words
	}
}

// MergeWorkers folds per-worker counters into s. Sums and max are
// order-independent, so the totals are bit-identical to a sequential
// delivery no matter how the work was sharded.
func (s *Stats) MergeWorkers(ws []WorkerStats) {
	for i := range ws {
		w := &ws[i]
		s.Messages += w.Messages
		s.Words += w.Words
		if w.MaxWords > s.MaxMessageWords {
			s.MaxMessageWords = w.MaxWords
		}
	}
}

// Pool is a fixed set of shard workers owning disjoint endpoint ranges
// [Bounds(i)). It is the one copy of the parallel substrate shared by
// the three model simulators: the CONGEST runner drives it with custom
// per-round tasks (delivery + batched wake-up), while the CLIQUE and MPC
// simulators use the ForEach/Scatter passes. A single-shard pool (small
// endpoint count, GOMAXPROCS=1) starts no goroutines and runs everything
// inline, so the sequential path and the parallel path are the same
// code.
type Pool struct {
	n       int
	nshards int
	bounds  []int
	tasks   []chan func(int) // nil when nshards == 1
	workers sync.WaitGroup
}

// NewPool creates a pool over n endpoints with at least minPerShard
// endpoints per shard, sized from GOMAXPROCS. Call Close when done: the
// workers are persistent goroutines.
func NewPool(n, minPerShard int) *Pool {
	return NewPoolSized(n, minPerShard, 0)
}

// NewPoolSized is NewPool with an explicit worker bound: workers > 0
// caps the shard count instead of GOMAXPROCS (the minPerShard floor and
// the SetForceShards test hook still apply), workers = 0 is NewPool.
func NewPoolSized(n, minPerShard, workers int) *Pool {
	p := &Pool{n: n, nshards: shardCount(n, minPerShard, workers)}
	p.bounds = make([]int, p.nshards+1)
	for i := 1; i <= p.nshards; i++ {
		p.bounds[i] = i * n / p.nshards
	}
	if p.nshards > 1 {
		p.tasks = make([]chan func(int), p.nshards)
		for i := range p.tasks {
			p.tasks[i] = make(chan func(int), 1)
		}
		p.workers.Add(p.nshards)
		for i := 0; i < p.nshards; i++ {
			go func(wid int) {
				defer p.workers.Done()
				for fn := range p.tasks[wid] {
					fn(wid)
				}
			}(i)
		}
	}
	return p
}

// Shards returns the number of shard workers.
func (p *Pool) Shards() int { return p.nshards }

// Bounds returns the endpoint range [lo, hi) owned by shard i.
func (p *Pool) Bounds(i int) (lo, hi int) { return p.bounds[i], p.bounds[i+1] }

// ShardOf returns the shard owning endpoint v.
func (p *Pool) ShardOf(v int) int {
	return sort.Search(p.nshards, func(i int) bool { return p.bounds[i+1] > v })
}

// Submit hands fn to worker wid (inline on a single-shard pool). The
// caller is responsible for any completion synchronization; ForEach and
// Scatter are the self-synchronizing passes.
func (p *Pool) Submit(wid int, fn func(wid int)) {
	if p.tasks == nil {
		fn(0)
		return
	}
	p.tasks[wid] <- fn
}

// ForEach runs fn once per shard over its endpoint range, in parallel,
// and returns when every shard has finished. Single-shard pools run
// inline.
func (p *Pool) ForEach(fn func(wid, lo, hi int)) {
	if p.tasks == nil {
		fn(0, 0, p.n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p.nshards)
	for i := 0; i < p.nshards; i++ {
		p.tasks[i] <- func(wid int) {
			defer wg.Done()
			fn(wid, p.bounds[wid], p.bounds[wid+1])
		}
	}
	wg.Wait()
}

// Close stops the workers. The pool must not be used afterwards.
func (p *Pool) Close() {
	if p.tasks != nil {
		for _, ch := range p.tasks {
			close(ch)
		}
		p.workers.Wait()
		p.tasks = nil
	}
}

// scatterItem is one routed unit of a Scatter pass.
type scatterItem[T any] struct {
	src, dst int32
	item     T
}

// Scatter moves items from senders to receivers (both indexed by the
// pool's endpoints) in two deterministic phases. Phase 1 is
// sender-sharded: send(wid, s, emit) runs once per sender s on the
// worker owning s, and every emit(dst, item) routes one item into the
// bucket of dst's shard. Phase 2 is receiver-sharded: recv(wid, src,
// dst, item) runs on the worker owning dst, with the items of each
// receiver arriving in ascending sender order — the exact order a
// sequential scan of the senders would deliver, so the result is
// bit-identical regardless of the worker count. Workers touch disjoint
// state, so neither phase needs locks; per-worker accounting (stats, IO
// vectors, first-error slots) indexed by wid is the intended way to
// aggregate, with a deterministic merge after Scatter returns.
func Scatter[T any](p *Pool, send func(wid, src int, emit func(dst int, item T)), recv func(wid int, src, dst int32, item T)) {
	if p.nshards == 1 {
		// Sequential fast path: a single scan of the senders in ascending
		// order delivers each receiver's items in exactly the order the
		// two-phase pass would — no bucket staging needed.
		for s := 0; s < p.n; s++ {
			src := int32(s)
			send(0, s, func(dst int, item T) { recv(0, src, int32(dst), item) })
		}
		return
	}
	k := p.nshards
	buckets := make([][][]scatterItem[T], k)
	p.ForEach(func(wid, lo, hi int) {
		b := make([][]scatterItem[T], k)
		for s := lo; s < hi; s++ {
			send(wid, s, func(dst int, item T) {
				ds := p.ShardOf(dst)
				b[ds] = append(b[ds], scatterItem[T]{src: int32(s), dst: int32(dst), item: item})
			})
		}
		buckets[wid] = b
	})
	p.ForEach(func(wid, lo, hi int) {
		for w1 := 0; w1 < k; w1++ {
			for i := range buckets[w1][wid] {
				it := &buckets[w1][wid][i]
				recv(wid, it.src, it.dst, it.item)
			}
		}
	})
}
