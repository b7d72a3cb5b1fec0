// Package obs is the end-to-end operation tracing layer: allocation-free
// span recording on every serving hop (client op → cluster sub-batch →
// server frame → admission gate → shard op), sampled by a power-of-two
// trace-id mask and drained by a background folder into a bounded recent
// store plus a slow-op exemplar table.
//
// The paper's headline claim is adaptivity — per-op step complexity scales
// with the live contention, not with n — and the serving system around it
// can only honor that claim operationally if a p99.9 spike is attributable:
// which node, which shard, which phase mode, how much of the time was
// admission wait versus execution. A merged latency histogram cannot answer
// that; a causal span record can. This package is that record, built under
// the same discipline as every other hot path in the repo:
//
//   - Fixed-size spans. A Span is six 64-bit words plus a kind byte —
//     trace id, span id, parent id, start, duration, and one per-kind
//     attribute word (attr.go documents the packing: node id, shard index,
//     phase mode, admission wait, ops-in-frame). No strings, no maps, no
//     variable-length anything on the record path.
//   - Per-P padded ring buffers. Record hashes a stack address (the same
//     goroutine-distinguishing trick serve.Pool uses for shard selection)
//     to pick one of a power-of-two set of cache-line-padded rings, claims
//     a slot with one atomic add, and publishes the span through a per-slot
//     seqlock — lock-free, allocation-free (AllocsPerRun-pinned), and
//     race-detector-clean. A reader that catches a slot mid-write skips it;
//     a writer that catches another writer drops its span (overwriting is
//     the ring's contract anyway).
//   - One load + branch when disarmed. Sampling is a power-of-two mask on
//     the trace id: Sampled is a single atomic load and a mask test, so an
//     unarmed collector costs the serving path one predictable branch.
//   - Background folding. A folder goroutine drains the rings every few
//     milliseconds into a bounded recent store (the /trace dump) and a
//     top-K-by-duration exemplar table per (kind, op code), so the slowest
//     operations survive ring churn and arrive with enough identity (the
//     trace id) to pull their full cross-hop chain.
//
// The wire protocol carries the trace context between processes: a traced
// TBatch frame holds the 8-byte trace id plus a sampled flag, and the reply
// echoes the server's stage timings (internal/wire). Span ids are process
// local; chains are stitched across processes by trace id alone.
package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/rng"
)

// Kind classifies one span: which hop of the serving path it measures.
type Kind uint8

const (
	// KindClientOp is one client-side operation: from issue to reply
	// delivery, including client-side queueing (group-commit wait) and the
	// full round trip. Attr: op code, node id.
	KindClientOp Kind = 1 + iota
	// KindSubBatch is one frame on one node's connection, measured on the
	// client from write to reply: the per-node leg of a scatter-gather (or
	// of a group-committed pipeline). Attr: ops-in-frame, node id.
	KindSubBatch
	// KindGather is one whole scatter-gather batch on the cluster client:
	// from first sub-batch send to last reply. Sub-batch spans carry it as
	// their parent, so fan-out skew is visible per gather. Attr:
	// ops-in-frame (total), node id unset.
	KindGather
	// KindFrame is one batch frame on the server: dequeue to reply append.
	// Attr: ops-in-frame, node id.
	KindFrame
	// KindAdmit is one admission-gate wait on the server: recorded only
	// when the op actually queued (or was shed). Attr: wait ns, shed flag,
	// node id.
	KindAdmit
	// KindOp is one operation executed against a shard pool on the server.
	// Attr: op code, shard index, phase mode, node id.
	KindOp

	numKinds = int(KindOp) + 1
)

var kindNames = [numKinds]string{"", "client_op", "sub_batch", "gather", "frame", "admit", "op"}

// Name returns the kind's label ("op", "admit", ...; the /trace JSON kind
// field).
func (k Kind) Name() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one fixed-size trace record. Start is Unix nanoseconds, Dur is
// nanoseconds; Attr is the per-kind attribute word (attr.go). ID and
// Parent are process-local span ids (0 = no parent); Trace stitches spans
// across processes.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Start  int64
	Dur    int64
	Attr   uint64
	Kind   Kind
}

// spanWords is the number of 64-bit words a span occupies in a ring slot
// (the kind rides in a seventh word).
const spanWords = 7

// slot is one seqlock-published ring entry. seq is even when the slot is
// stable; a writer makes it odd, stores the words, and makes it even again.
// All accesses are atomic so the folder's concurrent reads are clean under
// the race detector; the seq check makes them consistent.
type slot struct {
	seq atomic.Uint64
	w   [spanWords]atomic.Uint64
}

// ringBits is the per-shard ring size (spans); a power of two so slot
// indexing is one mask.
const (
	ringBits = 11
	ringLen  = 1 << ringBits
	ringMask = ringLen - 1
)

// shard is one per-P ring: a claim cursor padded away from the slots so
// concurrent recorders on different shards never share a cache line.
type shard struct {
	pos atomic.Uint64
	_   [56]byte
	buf [ringLen]slot
}

// exemplarK is the depth of each (kind, op code) exemplar row: the K
// slowest spans the folder has seen survive ring churn there.
const exemplarK = 4

// recentLen bounds the folded recent-span store (the /trace dump body).
const recentLen = 4096

// Collector owns the ring shards, the sampling mask, and the folded
// surfaces. One Collector per server (its /trace endpoint) and one per
// tracing client (renameload -trace); New starts the folder goroutine,
// Close stops it.
type Collector struct {
	rate   atomic.Uint64 // sampling rate: 0 = disarmed, else power of two N (sample trace ids ≡ 0 mod N)
	ids    atomic.Uint64 // span/trace id source (sampled paths only)
	shards []shard
	smask  uint64

	// Folded surfaces, guarded by mu: a bounded ring of recent spans plus
	// the per-(kind, op code) top-K exemplar table.
	mu     sync.Mutex
	recent [recentLen]Span
	rpos   uint64
	rn     int
	exem   [numKinds][8][exemplarK]Span
	folded uint64 // spans folded in total (drop accounting: claimed - folded)
	read   []uint64

	stop chan struct{}
	done chan struct{}
}

// foldPeriod is the folder's drain interval: long enough to stay invisible
// in profiles, short enough that /trace is near-live.
const foldPeriod = 5 * time.Millisecond

// New builds a collector with nshards recording rings (rounded up to a
// power of two; ≤ 0 picks a default sized for small-core boxes) and starts
// its background folder. The collector starts disarmed: Record stores
// spans regardless (the caller already decided to sample — for a server,
// the client's sampled flag), but NextTrace/Sampled gate origination.
func New(nshards int) *Collector {
	if nshards <= 0 {
		nshards = 4
	}
	n := 1
	for n < nshards {
		n <<= 1
	}
	c := &Collector{
		shards: make([]shard, n),
		smask:  uint64(n - 1),
		read:   make([]uint64, n),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go c.foldLoop()
	return c
}

// Close stops the background folder (after one final drain).
func (c *Collector) Close() {
	select {
	case <-c.stop:
		return // already closed
	default:
	}
	close(c.stop)
	<-c.done
}

// Arm sets the origination sampling rate: trace ids congruent to 0 mod N
// are sampled, N rounded up to a power of two (1 samples everything, 0
// disarms). Arming is what makes NextTrace/Sampled produce work; Record
// itself is always live.
func (c *Collector) Arm(rate uint64) {
	if rate == 0 {
		c.rate.Store(0)
		return
	}
	n := uint64(1)
	for n < rate && n < 1<<16 {
		// Cap at 2^16: NextTrace keeps only the low 16 id bits dense, so
		// wider masks would sample on mixed (effectively random) bits.
		n <<= 1
	}
	c.rate.Store(n)
}

// Rate returns the armed sampling rate (0 = disarmed).
func (c *Collector) Rate() uint64 { return c.rate.Load() }

// NextTrace returns a fresh nonzero trace id. The low bits cycle densely,
// so the power-of-two sampling mask selects exactly 1/N of consecutive ids.
func (c *Collector) NextTrace() uint64 {
	id := c.ids.Add(1)
	// Spread the dense counter through the high bits so distinct processes'
	// ids rarely collide, while keeping the low bits dense for the mask.
	return (rng.Mix64(id) &^ 0xffff) | (id & 0xffff) | 1<<63
}

// NextID returns a fresh process-local span id — for callers that need a
// parent id before the parent span's duration is known (record children
// with Parent set to it, then Record the parent with ID set to it).
func (c *Collector) NextID() uint64 { return c.ids.Add(1) }

// Sampled reports whether a trace id falls under the armed sampling mask.
// The disarmed path is one atomic load and one branch.
func (c *Collector) Sampled(trace uint64) bool {
	n := c.rate.Load()
	return n != 0 && trace&(n-1) == 0
}

// Record stores one span (the caller fills every field except ID, which
// Record assigns when zero) and returns the span's id for parent linking.
// It performs no allocation and takes no locks: one stack-address hash to
// pick a ring, one atomic add to claim a slot, and a seqlock publish. A
// slot caught mid-write by another recorder drops the span — overwriting
// is the ring's contract, and a torn exemplar would be worse than a
// missing one.
func (c *Collector) Record(s Span) uint64 {
	if s.ID == 0 {
		s.ID = c.NextID()
	}
	var b byte
	r := &c.shards[rng.Mix64(uint64(uintptr(unsafe.Pointer(&b))))&c.smask]
	sl := &r.buf[r.pos.Add(1)&ringMask]
	seq := sl.seq.Load()
	if seq&1 != 0 || !sl.seq.CompareAndSwap(seq, seq+1) {
		return s.ID // another writer owns the slot; drop
	}
	sl.w[0].Store(s.Trace)
	sl.w[1].Store(s.ID)
	sl.w[2].Store(s.Parent)
	sl.w[3].Store(uint64(s.Start))
	sl.w[4].Store(uint64(s.Dur))
	sl.w[5].Store(s.Attr)
	sl.w[6].Store(uint64(s.Kind))
	sl.seq.Store(seq + 2)
	return s.ID
}

// foldLoop is the background folder: it drains every ring into the folded
// surfaces until Close.
func (c *Collector) foldLoop() {
	defer close(c.done)
	t := time.NewTicker(foldPeriod)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			c.Fold()
			return
		case <-t.C:
			c.Fold()
		}
	}
}

// Fold drains every ring's spans recorded since the last fold into the
// recent store and the exemplar table. The folder calls it on a timer;
// surfaces call it once more before reading so a fresh span is never more
// than one call away.
func (c *Collector) Fold() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.shards {
		r := &c.shards[i]
		pos := r.pos.Load()
		from := c.read[i]
		if pos-from > ringLen {
			from = pos - ringLen // overwritten; drop the lost window
		}
		for j := from; j < pos; j++ {
			sl := &r.buf[(j+1)&ringMask] // claim was Add(1): slot index is post-increment
			s1 := sl.seq.Load()
			if s1&1 != 0 {
				continue // mid-write; it will fold next round
			}
			s := Span{
				Trace:  sl.w[0].Load(),
				ID:     sl.w[1].Load(),
				Parent: sl.w[2].Load(),
				Start:  int64(sl.w[3].Load()),
				Dur:    int64(sl.w[4].Load()),
				Attr:   sl.w[5].Load(),
				Kind:   Kind(sl.w[6].Load()),
			}
			if sl.seq.Load() != s1 {
				continue // torn read; skip
			}
			if s.Kind == 0 || int(s.Kind) >= numKinds {
				continue // never written (fresh slot) or corrupt
			}
			c.recent[c.rpos&(recentLen-1)] = s
			c.rpos++
			if c.rn < recentLen {
				c.rn++
			}
			c.foldExemplar(s)
			c.folded++
		}
		c.read[i] = pos
	}
}

// exemBucket picks a span's exemplar row within its kind: by op code for
// op-shaped kinds, a single row for the rest (whose attr byte 0 is not an
// op code).
func exemBucket(s Span) int {
	switch s.Kind {
	case KindClientOp, KindOp:
		return int(AttrOp(s.Attr) & 7)
	}
	return 0
}

// foldExemplar keeps the K slowest spans per (kind, op code bucket).
func (c *Collector) foldExemplar(s Span) {
	row := &c.exem[s.Kind][exemBucket(s)]
	for i := 0; i < exemplarK; i++ {
		if s.Dur > row[i].Dur {
			copy(row[i+1:], row[i:exemplarK-1])
			row[i] = s
			return
		}
	}
}

// Recent appends (up to) the n most recently folded spans to dst, oldest
// first, and returns the extended slice.
func (c *Collector) Recent(dst []Span, n int) []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 || n > c.rn {
		n = c.rn
	}
	for i := c.rpos - uint64(n); i < c.rpos; i++ {
		dst = append(dst, c.recent[i&(recentLen-1)])
	}
	return dst
}

// Exemplars appends the folded top-K-by-duration spans of one kind (all op
// code buckets, slowest first per bucket) to dst.
func (c *Collector) Exemplars(dst []Span, k Kind) []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	for op := 0; op < 8; op++ {
		for i := 0; i < exemplarK; i++ {
			if s := c.exem[k][op][i]; s.Kind != 0 {
				dst = append(dst, s)
			}
		}
	}
	return dst
}

// Slowest returns the single slowest folded span of one kind and op code
// bucket (Kind 0 when none) — the exemplar the metrics endpoint attaches
// to its per-op-code latency series.
func (c *Collector) Slowest(k Kind, op uint8) Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exem[k][op&7][0]
}

// Chain appends every folded span sharing trace to dst, in fold order
// (which is close to, but not exactly, start order — sort if it matters).
func (c *Collector) Chain(dst []Span, trace uint64) []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := c.rpos - uint64(c.rn); i < c.rpos; i++ {
		if s := c.recent[i&(recentLen-1)]; s.Trace == trace {
			dst = append(dst, s)
		}
	}
	return dst
}

// Folded returns the total spans folded so far (a liveness gauge for
// /trace and tests).
func (c *Collector) Folded() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.folded
}

// OpNamer maps a wire op code to its label; the serving tier passes its
// table so obs never imports the protocol package.
type OpNamer func(op uint8) string

func opLabel(name OpNamer, op uint8) string {
	if name != nil {
		if s := name(op); s != "" {
			return s
		}
	}
	return fmt.Sprintf("op%d", op)
}

// writeSpan renders one span as a single JSON-lines object. Hand-rolled:
// the dump must not allocate per field on a server under load, and the
// schema is fixed.
func writeSpan(w io.Writer, s Span, name OpNamer, extra string) {
	fmt.Fprintf(w, `{"kind":%q,"trace":"%016x","id":%d,"parent":%d,"start_unix_ns":%d,"dur_ns":%d`,
		s.Kind.Name(), s.Trace, s.ID, s.Parent, s.Start, s.Dur)
	switch s.Kind {
	case KindClientOp, KindOp:
		fmt.Fprintf(w, `,"op":%q`, opLabel(name, AttrOp(s.Attr)))
		if s.Kind == KindOp {
			fmt.Fprintf(w, `,"shard":%d,"phase_mode":%d`, AttrShard(s.Attr), AttrMode(s.Attr))
		}
	case KindSubBatch, KindGather, KindFrame:
		fmt.Fprintf(w, `,"ops_in_frame":%d`, AttrOps(s.Attr))
	case KindAdmit:
		fmt.Fprintf(w, `,"wait_ns":%d,"shed":%v`, AttrWait(s.Attr), AttrShed(s.Attr))
	}
	if n, ok := AttrNode(s.Attr); ok && s.Kind != KindGather {
		fmt.Fprintf(w, `,"node":%d`, n)
	}
	if extra != "" {
		io.WriteString(w, extra)
	}
	io.WriteString(w, "}\n")
}

// WriteTrace dumps the folded surfaces as JSON lines: every recent span,
// then one exemplar line per (kind, op code) slot — the slowest operations
// with their trace ids, which survive ring churn and are the handles for
// pulling full cross-hop chains. name may be nil (generic op labels).
func (c *Collector) WriteTrace(w io.Writer, name OpNamer) {
	c.Fold()
	spans := c.Recent(nil, 0)
	for _, s := range spans {
		writeSpan(w, s, name, "")
	}
	c.mu.Lock()
	exem := c.exem
	folded := c.folded
	c.mu.Unlock()
	for k := 1; k < numKinds; k++ {
		for op := 0; op < 8; op++ {
			for rank := 0; rank < exemplarK; rank++ {
				s := exem[k][op][rank]
				if s.Kind == 0 {
					continue
				}
				writeSpan(w, s, name, fmt.Sprintf(`,"exemplar_rank":%d`, rank))
			}
		}
	}
	fmt.Fprintf(w, "{\"kind\":\"summary\",\"spans_folded\":%d,\"recent\":%d}\n", folded, len(spans))
}

// WriteChains prints the k slowest client-side chains (KindGather when the
// collector has any, else KindClientOp): the root span, then every other
// folded span sharing its trace id, indented — the renameload -trace
// report body.
func (c *Collector) WriteChains(w io.Writer, k int, name OpNamer) {
	c.Fold()
	roots := c.Exemplars(nil, KindGather)
	if len(roots) == 0 {
		roots = c.Exemplars(nil, KindClientOp)
	}
	// Exemplars come bucketed by op code; merge to one global slowest-first
	// order by selection (tiny lists).
	for i := 0; i < len(roots); i++ {
		for j := i + 1; j < len(roots); j++ {
			if roots[j].Dur > roots[i].Dur {
				roots[i], roots[j] = roots[j], roots[i]
			}
		}
	}
	if k < len(roots) {
		roots = roots[:k]
	}
	var chain []Span
	for rank, root := range roots {
		fmt.Fprintf(w, "#%d trace %016x: %s %s\n", rank+1, root.Trace, root.Kind.Name(), spanSummary(root, name))
		chain = c.Chain(chain[:0], root.Trace)
		for _, s := range chain {
			if s.ID == root.ID {
				continue
			}
			fmt.Fprintf(w, "    %-9s %s\n", s.Kind.Name(), spanSummary(s, name))
		}
	}
}

// spanSummary is the human one-liner of a span for chain printing.
func spanSummary(s Span, name OpNamer) string {
	out := fmt.Sprintf("%.3fms", float64(s.Dur)/1e6)
	switch s.Kind {
	case KindClientOp, KindOp:
		out += " " + opLabel(name, AttrOp(s.Attr))
		if s.Kind == KindOp {
			out += fmt.Sprintf(" shard=%d", AttrShard(s.Attr))
		}
	case KindSubBatch, KindGather, KindFrame:
		out += fmt.Sprintf(" ops=%d", AttrOps(s.Attr))
	case KindAdmit:
		out += fmt.Sprintf(" wait=%dns shed=%v", AttrWait(s.Attr), AttrShed(s.Attr))
	}
	if n, ok := AttrNode(s.Attr); ok && s.Kind != KindGather {
		out += fmt.Sprintf(" node=%d", n)
	}
	return out
}
