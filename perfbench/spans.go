package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/obs"
)

// Span kinds the benchmark records around its own calls into each layer.
// They continue obs.Kind past the program's kinds, so the benchmark's
// spans and the program's sampled cluster spans share one record type.
const (
	kindWave    obs.Kind = 32 + iota // one wave: checkout, execution, recycle
	kindGet                          // serve: Pool.Get / GetKeyed
	kindExecRun                      // exec: Instance.Exec(k).Run
	kindProc                         // core: one process's body in a wave
	kindCheck                        // benchmark: quiescent read and result copy
	kindPut                          // serve: Instance.Put
	kindOp                           // one pooled solo op
	kindCall                         // core: the object call of a solo op
	kindCommit                       // cluster: one committed batch
)

var benchKinds = map[obs.Kind]string{
	kindWave:    "bench.wave",
	kindGet:     "serve.get",
	kindExecRun: "exec.run",
	kindProc:    "core.proc",
	kindCheck:   "bench.check",
	kindPut:     "serve.put",
	kindOp:      "bench.op",
	kindCall:    "core.call",
	kindCommit:  "cluster.commit",
}

func kindName(k obs.Kind) string {
	if n, ok := benchKinds[k]; ok {
		return n
	}
	return "program." + k.Name()
}

// spansPerGen bounds each generator's in-memory span log.
const spansPerGen = 1 << 16

// spanEvery samples one request in spanEvery for span recording; every
// request still feeds the per-layer timing histograms.
const spanEvery = 16

// spanLog is one generator's in-memory span record, written out at exit.
type spanLog struct {
	spans []obs.Span
	ids   uint64 // generator id in the high bits, a counter below
}

func newSpanLog(gen int) spanLog {
	return spanLog{spans: make([]obs.Span, 0, spansPerGen), ids: uint64(gen+1) << 48}
}

// room reports whether a request of n spans still fits.
func (l *spanLog) room(n int) bool { return len(l.spans)+n <= cap(l.spans) }

func (l *spanLog) id() uint64 {
	l.ids++
	return l.ids
}

// add records one span from two now() readings. Start is stored as Unix
// nanoseconds, the program's span clock.
func (l *spanLog) add(trace, id, parent uint64, kind obs.Kind, start, end int64) {
	l.spans = append(l.spans, obs.Span{
		Trace: trace, ID: id, Parent: parent, Kind: kind,
		Start: epoch.UnixNano() + start, Dur: end - start,
	})
}

// selfStat is one span kind's aggregate: count, total duration, and total
// self time (duration minus the part of it that child spans cover).
type selfStat struct {
	n       int
	durNS   int64
	selfNS  int64
	kindStr string
}

// selfTimes derives each span kind's self time from parent links.
func selfTimes(spans []obs.Span) []selfStat {
	kids := map[uint64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	agg := map[string]*selfStat{}
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, s := range spans {
		ivs = ivs[:0]
		lo, hi := s.Start, s.Start+s.Dur
		for _, c := range kids[s.ID] {
			cs := spans[c]
			a, b := max(cs.Start, lo), min(cs.Start+cs.Dur, hi)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int {
			switch {
			case x.lo < y.lo:
				return -1
			case x.lo > y.lo:
				return 1
			}
			return 0
		})
		var covered, end int64
		end = lo
		for _, v := range ivs {
			if v.lo > end {
				end = v.lo
			}
			if v.hi > end {
				covered += v.hi - end
				end = v.hi
			}
		}
		name := kindName(s.Kind)
		st := agg[name]
		if st == nil {
			st = &selfStat{kindStr: name}
			agg[name] = st
		}
		st.n++
		st.durNS += s.Dur
		st.selfNS += s.Dur - covered
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].kindStr < out[j].kindStr })
	return out
}

// printSelfTimes prints one line per span kind.
func printSelfTimes(w io.Writer, workload string, spans []obs.Span) {
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "selftime %s %-22s n=%-7d mean_dur_us=%.3f mean_self_us=%.3f\n",
			workload, st.kindStr, st.n,
			float64(st.durNS)/float64(st.n)/1e3, float64(st.selfNS)/float64(st.n)/1e3)
	}
}

// writeSpans writes spans as JSON lines to dir/spans-<workload>-<seed>.jsonl
// and returns the path.
func writeSpans(dir, workload string, seed uint64, spans []obs.Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"trace":%d,"id":%d,"parent":%d,"kind":%q,"start_ns":%d,"dur_ns":%d,"attr":%d}`+"\n",
			s.Trace, s.ID, s.Parent, kindName(s.Kind), s.Start, s.Dur, s.Attr)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
