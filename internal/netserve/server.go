// Package netserve is the networked serving tier: a server that maps
// connections onto the sharded in-process pools (internal/serve,
// internal/phase) behind the batched binary wire protocol (internal/wire),
// and a pipelining client that keeps many batches in flight per
// connection.
//
// The server's request path is the same discipline as every other hot path
// in this repo: the steady state — decode a batch, run its ops against the
// pools, encode the reply — performs zero allocations per operation
// (AllocsPerRun-pinned by TestServeFrameAllocationFree). Three ingredients:
//
//   - zero-copy decode: wire.ReadFrame reads each frame into a
//     per-connection reusable buffer and wire.Parse returns views into it;
//     ops are consumed straight out of the read buffer, never materialized;
//   - pooled execution: per-op kinds check instances out of the existing
//     serve.Pool shards (GetKeyed with the client-supplied routing key, so
//     a tenant's hot keys land on one shard exactly as in-process keyed
//     callers do) and recycle them via the Put disarm path — a connection
//     dying mid-batch cannot leak an instance (the op helpers Put through
//     defers);
//   - coalesced writes: replies accumulate in a buffered writer that is
//     flushed only when the connection's read buffer runs dry, so a
//     pipelining client's n in-flight batches cost ~one write syscall per
//     drain, not one per frame.
//
// A connection whose first bytes are "GET " is served a plain-text metrics
// dump instead (metrics.go) — the first slice of the observability surface,
// fed allocation-free from the pools' existing gauges.
package netserve

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shmem"
	"repro/internal/wire"
)

// maxWaveK bounds the width of an OpWave execution: wire input is
// untrusted, and each process of a wave runs on a parked worker goroutine,
// so the bound caps how many workers one hostile wave can add.
const maxWaveK = 32

// histMergePeriod is how many completed ops a session accumulates in its
// private latency shard before folding it into the server's merged
// histogram (the merge takes a mutex, so it stays off the per-op path).
const histMergePeriod = 4096

// Options configures a Server beyond its pools.
type Options struct {
	// Admission bounds concurrently-executing operations on the checkout
	// path (admission.go). The zero value admits everything immediately.
	Admission AdmissionConfig
	// NodeID is the cluster node identity stamped into trace spans (and
	// shown on /trace), so a cross-hop chain attributes each server-side
	// span to its ring node. Negative = standalone, no node attribution.
	NodeID int
}

// Server serves the wire protocol over one listener, mapping each
// connection onto the shared load.Target pools.
type Server struct {
	tg   *load.Target
	ln   net.Listener
	adm  *admission // nil when admission control is disabled
	col  *obs.Collector
	node int // span node attribution; -1 = standalone
	wg   sync.WaitGroup

	cmu  sync.Mutex
	live map[net.Conn]struct{}

	conns    atomic.Int64 // open connections
	accepted atomic.Uint64
	frames   atomic.Uint64
	errs     atomic.Uint64 // protocol errors reported to clients
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64

	// Merged service-time histograms (one overall, one per opcode) plus
	// per-opcode counters, folded in periodically from per-session shards
	// (sessions own their shards; the fold is the only synchronized step).
	hmu    sync.Mutex
	hist   load.Hist
	ophist [8]load.Hist // indexed by wire.OpCode
	ops    [8]uint64    // indexed by wire.OpCode
}

// NewServer starts serving the wire protocol on ln against tg's pools
// (nil tg builds load.NewTarget(1)). Close stops the listener and all open
// connections.
func NewServer(ln net.Listener, tg *load.Target) *Server {
	return NewServerOpts(ln, tg, Options{NodeID: -1})
}

// NewServerOpts is NewServer with explicit Options (admission control,
// span node identity).
func NewServerOpts(ln net.Listener, tg *load.Target, opts Options) *Server {
	if tg == nil {
		tg = load.NewTarget(1)
	}
	s := &Server{
		tg:   tg,
		ln:   ln,
		adm:  newAdmission(opts.Admission),
		col:  obs.New(0),
		node: opts.NodeID,
		live: map[net.Conn]struct{}{},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// ListenAndServe listens on addr (TCP) and serves it.
func ListenAndServe(addr string, tg *load.Target) (*Server, error) {
	return ListenAndServeOpts(addr, tg, Options{})
}

// ListenAndServeOpts is ListenAndServe with explicit Options.
func ListenAndServeOpts(addr string, tg *load.Target, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServerOpts(ln, tg, opts), nil
}

// Addr returns the listener's address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Target returns the served pools.
func (s *Server) Target() *load.Target { return s.tg }

// Tracer returns the server's span collector — /trace reads it, and tests
// assert chains through it. The server never originates traces: it records
// spans for batches the client marked sampled, so the collector needs no
// arming here.
func (s *Server) Tracer() *obs.Collector { return s.col }

// Close stops the listener, closes every open connection, and waits for
// the connection handlers to drain. In-flight batches on closed
// connections are abandoned; their pool instances are still recycled (the
// op helpers Put through defers, and no instance is held across ops).
func (s *Server) Close() error {
	err := s.ln.Close()
	s.cmu.Lock()
	for c := range s.live {
		c.Close()
	}
	s.cmu.Unlock()
	s.wg.Wait()
	s.col.Close()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.accepted.Add(1)
		s.cmu.Lock()
		s.live[conn] = struct{}{}
		s.cmu.Unlock()
		s.conns.Add(1)
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) untrack(conn net.Conn) {
	s.cmu.Lock()
	delete(s.live, conn)
	s.cmu.Unlock()
	s.conns.Add(-1)
	conn.Close()
}

// session is one connection's reusable serving state: the frame read
// buffer, the reply build buffer, the value scratch, and the private
// latency/op-count shards. Everything here is touched only by the
// connection's handler goroutine.
type session struct {
	srv    *Server
	rbuf   []byte
	out    []byte
	vals   []uint64
	ophist [8]load.Hist
	ops    [8]uint64
	nops   uint64 // ops since the last shard fold
}

func (s *Server) newSession() *session {
	return &session{
		srv:  s,
		rbuf: make([]byte, 0, 4096),
		out:  make([]byte, 0, 4096),
		vals: make([]uint64, 0, wire.MaxOps),
	}
}

// fold merges the session's private shards into the server's totals.
func (ss *session) fold() {
	s := ss.srv
	s.hmu.Lock()
	for i := range ss.ophist {
		// The overall hist is the per-op hists' union, derived here at fold
		// time so the serving loop pays for exactly one Record per op.
		s.hist.Merge(&ss.ophist[i])
		s.ophist[i].Merge(&ss.ophist[i])
	}
	for i, n := range ss.ops {
		s.ops[i] += n
	}
	s.hmu.Unlock()
	for i := range ss.ophist {
		ss.ophist[i].Reset()
	}
	ss.ops = [8]uint64{}
	ss.nops = 0
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	r := bufio.NewReaderSize(conn, 128<<10)

	// An HTTP client: route to the observability surface (metrics, traces,
	// profiles) and close. Non-GET methods are sniffed too, so they get a
	// clean 405 instead of a wire-protocol error frame.
	if head, err := r.Peek(4); err == nil {
		if isHTTP, isGet := sniffHTTP(head); isHTTP {
			s.serveHTTP(conn, r, isGet)
			return
		}
	}

	w := bufio.NewWriterSize(conn, 128<<10)
	ss := s.newSession()
	defer ss.fold()
	for {
		payload, err := wire.ReadFrame(r, ss.rbuf)
		if err != nil {
			// A protocol violation gets a terminal error frame before the
			// drop; a plain read error (EOF, reset) just drops.
			if errors.Is(err, wire.ErrTooLarge) || errors.Is(err, wire.ErrMalformed) {
				code := wire.EMalformed
				if errors.Is(err, wire.ErrTooLarge) {
					code = wire.ETooLarge
				}
				s.errs.Add(1)
				w.Write(wire.AppendError(ss.out[:0], 0, code, err.Error()))
				w.Flush()
			}
			return
		}
		ss.rbuf = payload
		s.bytesIn.Add(uint64(len(payload)) + 4)
		out := ss.serveFrame(payload, ss.out[:0])
		if _, err := w.Write(out); err != nil {
			return
		}
		ss.out = out
		s.frames.Add(1)
		s.bytesOut.Add(uint64(len(out)))
		// Coalesce: flush only when no further frame is already buffered,
		// so a pipelined burst of n batches drains in ~one write.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
		if ss.nops >= histMergePeriod {
			ss.fold()
		}
	}
}

// serveFrame executes one parsed batch and appends the reply (or error)
// frame to out. This — decode, pool ops, encode — is the steady-state
// request path, pinned at 0 allocs/op (traced and untraced:
// TestServeFrameAllocationFree / TestServeFrameTracedAllocationFree).
func (ss *session) serveFrame(payload []byte, out []byte) []byte {
	f, err := wire.Parse(payload)
	if err != nil {
		ss.srv.errs.Add(1)
		return wire.AppendError(out, 0, wire.EMalformed, err.Error())
	}
	if f.Type != wire.TBatch {
		ss.srv.errs.Add(1)
		return wire.AppendError(out, f.Seq, wire.EBadOp, "expected a batch frame")
	}
	// The deadline budget is measured from dequeue: a batch that a slow
	// predecessor pushed past its budget fails fast instead of stretching
	// the tail further. (Arrival time inside the kernel buffer is not
	// observable; the budget bounds processing, which is what queues.)
	t0 := time.Now()
	budget := time.Duration(f.Deadline)
	prev := t0
	vals := ss.vals[:0]
	// Tracing: the client marked this batch sampled, so every hop inside it
	// records a span under the propagated trace id, parented on the frame
	// span (whose id is reserved up front; it is recorded last, once its
	// duration is known). Untraced batches skip all of it on one branch.
	sampled := f.Sampled
	var frameSpan uint64
	if sampled {
		frameSpan = ss.srv.col.NextID()
	}
	var admitNS, execNS int64
	for i := 0; i < f.Ops(); i++ {
		if budget > 0 && prev.Sub(t0) > budget {
			ss.srv.errs.Add(1)
			return wire.AppendError(out, f.Seq, wire.EDeadline, "deadline exceeded mid-batch")
		}
		code, arg := f.Op(i)
		var v uint64
		var ok bool
		var waited time.Duration
		if adm := ss.srv.adm; adm != nil {
			// Admission: acquire a gate slot before touching a pool. A
			// queued op waits at most the batch's remaining deadline budget
			// (MaxWait when the batch carries none); a full queue or an
			// expired wait sheds the batch with the retryable EShed — the
			// op was never started, so the client may simply resubmit.
			wait := adm.cfg.MaxWait
			if budget > 0 {
				wait = budget - prev.Sub(t0)
			}
			var g *gate
			g, waited = adm.acquire(arg, wait)
			if g == nil {
				if sampled {
					ss.recordShedSpan(&f, frameSpan, t0, prev, waited)
				}
				return wire.AppendError(out, f.Seq, wire.EShed, "shed by admission control (queue full or deadline)")
			}
			v, ok = ss.opAdmitted(g, code, arg)
		} else {
			v, ok = ss.op(code, arg)
		}
		if !ok {
			ss.srv.errs.Add(1)
			return wire.AppendError(out, f.Seq, wire.EBadOp, "unknown opcode")
		}
		vals = append(vals, v)
		now := time.Now()
		d := now.Sub(prev)
		exec := d - waited
		if exec < 0 {
			exec = 0
		}
		admitNS += int64(waited)
		execNS += int64(exec)
		if sampled {
			ss.recordOpSpans(&f, frameSpan, prev, waited, exec, code, arg)
		}
		ss.ophist[code&7].Record(uint64(d))
		ss.ops[code&7]++
		ss.nops++
		prev = now
	}
	ss.vals = vals
	if f.Traced {
		// Echo the stage decomposition on every traced batch (sampled or
		// not), so client-side reports can split round trips into
		// queue/admit/execute/reply without inflating the span volume.
		srv := time.Since(t0)
		if sampled {
			ss.recordFrameSpan(&f, frameSpan, t0, srv)
		}
		return wire.AppendReplyStaged(out, f.Seq, vals, uint64(srv), uint64(admitNS), uint64(execNS))
	}
	return wire.AppendReply(out, f.Seq, vals)
}

// recordOpSpans records a sampled op's spans — its admission wait (when it
// queued) and the op itself, both parented on the frame span. Kept out of
// line so the untraced serving loop pays one predicted branch, not the
// span-construction code in its body.
func (ss *session) recordOpSpans(f *wire.Frame, frameSpan uint64, prev time.Time, waited, exec time.Duration, code wire.OpCode, arg uint64) {
	if waited > 0 {
		ss.srv.col.Record(obs.Span{
			Trace:  f.Trace,
			Parent: frameSpan,
			Start:  prev.UnixNano(),
			Dur:    int64(waited),
			Attr:   obs.PackAdmit(int64(waited), false, ss.srv.node),
			Kind:   obs.KindAdmit,
		})
	}
	ss.srv.col.Record(obs.Span{
		Trace:  f.Trace,
		Parent: frameSpan,
		Start:  prev.UnixNano() + int64(waited),
		Dur:    int64(exec),
		Attr:   ss.opAttr(code, arg),
		Kind:   obs.KindOp,
	})
}

// recordShedSpan records a sampled shed — the terminal admission wait and
// the frame span that contains it (a shed batch returns before the loop's
// normal frame-span record).
func (ss *session) recordShedSpan(f *wire.Frame, frameSpan uint64, t0, prev time.Time, waited time.Duration) {
	ss.srv.col.Record(obs.Span{
		Trace:  f.Trace,
		Parent: frameSpan,
		Start:  prev.UnixNano(),
		Dur:    int64(waited),
		Attr:   obs.PackAdmit(int64(waited), true, ss.srv.node),
		Kind:   obs.KindAdmit,
	})
	ss.recordFrameSpan(f, frameSpan, t0, time.Since(t0))
}

// recordFrameSpan records the KindFrame root of a sampled batch's
// server-side spans.
func (ss *session) recordFrameSpan(f *wire.Frame, id uint64, t0 time.Time, dur time.Duration) {
	ss.srv.col.Record(obs.Span{
		Trace: f.Trace,
		ID:    id,
		Start: t0.UnixNano(),
		Dur:   int64(dur),
		Attr:  obs.PackOps(f.Ops(), ss.srv.node),
		Kind:  obs.KindFrame,
	})
}

// opAttr packs a sampled op span's attribute word: which pool shard the op
// routed to (the pools' own ShardFor, so attribution matches execution)
// and, for phased ops, the live phase mode.
func (ss *session) opAttr(code wire.OpCode, arg uint64) uint64 {
	tg := ss.srv.tg
	node := ss.srv.node
	switch code {
	case wire.OpRename:
		return obs.PackOp(uint8(code), tg.Rename.ShardFor(arg), 0, node)
	case wire.OpInc, wire.OpRead:
		return obs.PackOp(uint8(code), tg.Counter.ShardFor(arg), 0, node)
	case wire.OpPhasedInc, wire.OpPhasedRead, wire.OpPhasedReadStrict:
		return obs.PackOp(uint8(code), 0, uint8(tg.Phased.Counter().Mode()), node)
	}
	return obs.PackOp(uint8(code), 0, 0, node)
}

// opAdmitted runs one admitted operation and releases its gate slot (also
// on panic — a dying op must not eat a slot forever).
func (ss *session) opAdmitted(g *gate, code wire.OpCode, arg uint64) (uint64, bool) {
	defer g.release()
	return ss.op(code, arg)
}

// op executes one operation against the pools. The per-op kinds route by
// the client-supplied key through the pools' keyed checkout, so one
// tenant's hot keys contend on one shard — the same locality contract as
// in-process DoKeyed callers.
func (ss *session) op(code wire.OpCode, arg uint64) (uint64, bool) {
	tg := ss.srv.tg
	switch code {
	case wire.OpRename:
		return renameOp(tg.Rename, arg), true
	case wire.OpInc:
		return incOp(tg.Counter, arg), true
	case wire.OpRead:
		return readOp(tg.Counter, arg), true
	case wire.OpWave:
		return waveOp(tg.Rename, arg), true
	case wire.OpPhasedInc:
		tg.Phased.Inc()
		return 0, true
	case wire.OpPhasedRead:
		return tg.Phased.Read(), true
	case wire.OpPhasedReadStrict:
		return tg.Phased.ReadStrict(), true
	}
	return 0, false
}

// The op helpers mirror serve.Pool.Do but return the operation's value.
// Each Puts through a defer, so a panic mid-operation recycles the
// instance exactly as the in-process Do path does — a dying connection can
// never leak a checked-out instance.

func renameOp(pool *serve.Pool[*core.StrongAdaptive], key uint64) uint64 {
	in := pool.GetKeyed(key)
	defer in.Put()
	return in.Obj.Rename(in.Proc(), 1)
}

func incOp(pool *serve.Pool[*core.MonotoneCounter], key uint64) uint64 {
	in := pool.GetKeyed(key)
	defer in.Put()
	return in.Obj.Inc(in.Proc())
}

func readOp(pool *serve.Pool[*core.MonotoneCounter], key uint64) uint64 {
	in := pool.GetKeyed(key)
	defer in.Put()
	return in.Obj.Read(in.Proc())
}

func waveBody(p shmem.Proc, sa *core.StrongAdaptive) { sa.Rename(p, uint64(p.ID())+1) }

// waveOp runs one k-process execution wave against a checked-out renamer
// (k from the wire, clamped to [1, maxWaveK]) and returns the width
// actually run. A wave's processes run on parked workers; a wave only
// starts a goroutine when more of its processes run at once than workers
// are idle.
func waveOp(pool *serve.Pool[*core.StrongAdaptive], arg uint64) uint64 {
	k := int(arg)
	if k < 1 {
		k = 1
	}
	if k > maxWaveK {
		k = maxWaveK
	}
	in := pool.Get()
	defer in.Put()
	in.Execute(k, waveBody)
	return uint64(k)
}
