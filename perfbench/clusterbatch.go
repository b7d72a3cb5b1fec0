package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/load"
	"repro/internal/netserve"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

const (
	clusterNodes = 2
	clusterKeys  = 1024
	// batchOps is the ops per committed batch.
	batchOps = 64
	// nodeSpan is each node's share of the cluster name space.
	nodeSpan = 1 << 32
	// traceRate samples one scatter-gather batch in traceRate for the
	// program's own span chains in the traced run.
	traceRate    = 256
	warmCommits  = 600 // per generator
	dialDeadline = 5 * time.Second
)

// clusterBatch is the cluster-batch system: a ring of in-process wire
// servers on loopback and one cluster client holding one connection per
// node.
type clusterBatch struct {
	seed    uint64
	servers []*netserve.Server
	ring    *cluster.Ring
	cl      *cluster.Client
	z       *zipf
	gs      []*clusterGen

	col      *obs.Collector // armed during the traced run
	stA, stB load.Stages
	chains   []obs.Span // the program's sampled span chains
}

type clusterGen struct {
	*gen
	b      *cluster.Batch
	kinds  [batchOps]int
	keys   [batchOps]uint64
	commit load.Hist // traced commit times
}

func setupCluster(seed uint64, gens []*gen) (system, error) {
	s := &clusterBatch{seed: seed, z: newZipf(clusterKeys, zipfTheta)}
	addrs := make([]string, clusterNodes)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		// Each node serves one connection, whose frames execute one at a
		// time, so at most one op per node is in a gate at once. A
		// per-shard bound above that runs the admission check on every op
		// and sheds nothing in a healthy run.
		srv := netserve.NewServerOpts(ln, load.NewTarget(seed+uint64(i)*16), netserve.Options{
			Admission: netserve.AdmissionConfig{PerShard: 2 * len(gens)},
			NodeID:    i,
		})
		s.servers = append(s.servers, srv)
		addrs[i] = srv.Addr().String()
	}
	ring, err := cluster.New(addrs, nodeSpan)
	if err != nil {
		s.close()
		return nil, err
	}
	s.ring = ring
	if s.cl, err = cluster.Dial(ring, dialDeadline); err != nil {
		s.close()
		return nil, err
	}
	for _, g := range gens {
		s.gs = append(s.gs, &clusterGen{gen: g, b: s.cl.NewBatch()})
	}
	runWarm(len(gens), func(gi int) {
		first := uint64(1)<<62 + uint64(gi)*warmCommits
		for i := uint64(0); i < warmCommits; i++ {
			s.request(gi, first+i, false)
		}
	})
	return s, nil
}

func (s *clusterBatch) pools() serve.Stats {
	var st []serve.Stats
	for _, srv := range s.servers {
		tg := srv.Target()
		st = append(st, tg.Rename.Stats(), tg.Counter.Stats())
	}
	return sumPools(st...)
}

// setTrace arms the cluster client's trace surfaces for the traced run:
// every frame then carries a trace id and each reply echoes the server's
// stage split (read back through Stages), and one batch in traceRate
// records the program's span chain on client and servers.
func (s *clusterBatch) setTrace(on bool) {
	if on {
		s.col = obs.New(0)
		s.col.Arm(traceRate)
		s.cl.SetTrace(s.col)
		s.stA = s.cl.Stages()
		return
	}
	s.stB = s.cl.Stages()
	s.cl.SetTrace(nil)
	s.chains = s.collectProgramSpans()
	s.col.Close()
	s.col = nil
}

// request i commits one 64-op batch whose kinds and keys derive from
// (seed, i), and checks every reply.
func (s *clusterBatch) request(gi int, i uint64, traced bool) {
	g := s.gs[gi]
	r := rng.Derived(s.seed, i)
	b := g.b.Reset()
	for j := range g.kinds {
		kind, key := pickOp(&r), s.z.draw(&r)
		g.kinds[j], g.keys[j] = kind, key
		switch kind {
		case opRename:
			b.Rename(key)
		case opInc:
			b.Inc(key)
		default:
			b.Read(key)
		}
	}
	t0 := now()
	vals, err := b.Commit()
	t1 := now()
	g.lat.add(t1 - t0)
	g.ops += batchOps
	if err != nil && vals == nil {
		g.failed += batchOps
		return
	}
	for j, v := range vals {
		if e := b.OpErr(j); e != nil {
			g.failed++
			if load.IsShed(e) {
				g.shed++
			}
			continue
		}
		g.violation(checkClusterReply(s.ring, g.kinds[j], g.keys[j], v))
	}
	if traced {
		g.commit.Record(uint64(t1 - t0))
		if i%spanEvery == 0 && g.log.room(1) {
			g.log.add(i+1, g.log.id(), 0, kindCommit, t0, t1)
		}
	}
}

func (s *clusterBatch) perLayer(m map[string]float64, traced *phaseStats) {
	var commit load.Hist
	for _, g := range s.gs {
		commit.Merge(&g.commit)
	}
	meanCommit := meanTiming("cluster-batch", "cluster.commit_us", 0, &commit)
	st := s.stB.Sub(s.stA)
	frames := float64(st.Frames)
	perFrameUS := func(ns uint64) float64 { return ratio(float64(ns), frames) / 1e3 }
	m["netserve.srv_us_per_frame"] = perFrameUS(st.SrvNS)
	m["netserve.exec_us_per_frame"] = perFrameUS(st.ExecNS)
	m["netserve.admit_us_per_frame"] = perFrameUS(st.AdmitNS)
	m["netserve.queue_us_per_frame"] = perFrameUS(st.QueueNS())
	m["netserve.ops_per_frame"] = ratio(float64(traced.ops), frames)
	m["netserve.shed_ratio"] = ratio(float64(traced.sheds), float64(traced.ops))
	rtt := perFrameUS(st.RTTNS)
	m["cluster.rtt_us_per_subbatch"] = rtt
	m["cluster.net_us_per_subbatch"] = perFrameUS(st.ReplyNS())
	m["cluster.fanout_us_per_commit"] = meanCommit/1e3 - rtt
	m["cluster.subbatches_per_commit"] = ratio(frames, float64(commit.Count()))
}

// collectProgramSpans gathers the sampled chains the program recorded on
// the client (gather and sub-batch spans) and on each node (frame,
// admission and op spans). Span ids are per collector, so each
// collector's ids move to their own range, and each node's frame span is
// parented on the client sub-batch span of the same trace and node.
func (s *clusterBatch) collectProgramSpans() []obs.Span {
	var out []obs.Span
	shift := func(v uint64, src int) uint64 {
		if v == 0 {
			return 0
		}
		return uint64(src+1)<<56 | v
	}
	cols := []*obs.Collector{s.col}
	for _, srv := range s.servers {
		cols = append(cols, srv.Tracer())
	}
	type subKey struct {
		trace uint64
		node  int
	}
	subs := map[subKey]uint64{}
	for src, c := range cols {
		c.Fold()
		for _, sp := range c.Recent(nil, 1<<16) {
			sp.ID, sp.Parent = shift(sp.ID, src), shift(sp.Parent, src)
			if sp.Kind == obs.KindSubBatch {
				if node, ok := obs.AttrNode(sp.Attr); ok {
					subs[subKey{sp.Trace, node}] = sp.ID
				}
			}
			out = append(out, sp)
		}
	}
	linked := map[uint64]bool{} // sub-batch ids whose frame span was found
	for i := range out {
		if out[i].Kind != obs.KindFrame {
			continue
		}
		if node, ok := obs.AttrNode(out[i].Attr); ok {
			out[i].Parent = subs[subKey{out[i].Trace, node}]
			linked[out[i].Parent] = true
		}
	}
	// Keep only whole chains. The servers' recent stores are bounded, so
	// older frames roll out before their client spans do; a sub-batch
	// without its frame would count the whole round trip as its own time.
	broken := map[uint64]bool{}
	for _, sp := range out {
		if (sp.Kind == obs.KindSubBatch && !linked[sp.ID]) || (sp.Kind == obs.KindFrame && sp.Parent == 0) {
			broken[sp.Trace] = true
		}
	}
	kept := out[:0]
	for _, sp := range out {
		if !broken[sp.Trace] {
			kept = append(kept, sp)
		}
	}
	return kept
}

func (s *clusterBatch) programSpans() []obs.Span { return s.chains }

func (s *clusterBatch) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.col != nil {
		s.col.Close()
	}
}
