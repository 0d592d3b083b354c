package workload_test

import (
	"errors"
	"fmt"
	"testing"

	"dsmnc"
	"dsmnc/internal/sim"
	"dsmnc/memsys"
	"dsmnc/trace"
	"dsmnc/workload"
)

// TestOutOfRangeAddrReachesApplyBatch: the emitter narrows no address,
// so one beyond the simulated address space still reaches ApplyBatch
// intact and is rejected there with the scalar Apply's ErrBadRef text.
func TestOutOfRangeAddrReachesApplyBatch(t *testing.T) {
	opt := dsmnc.DefaultOptions()
	opt.Geometry = memsys.Geometry{Clusters: 2, ProcsPerCluster: 2}
	for _, a := range []memsys.Addr{memsys.MaxAddr + 1, 1 << 62, 1 << 63, ^memsys.Addr(0)} {
		for _, op := range []trace.Op{trace.Read, trace.Write} {
			name := fmt.Sprintf("%s@%#x", op, uint64(a))
			b := workload.NewTestBench(name, memsys.PageBytes, func(e *workload.Emitter) {
				e.Read(0, 0)
				if op == trace.Write {
					e.Write(1, a)
				} else {
					e.Read(1, a)
				}
			})
			batched, err := dsmnc.Build(b, dsmnc.Base(), opt)
			if err != nil {
				t.Fatal(err)
			}
			var got error
			b.EmitBatch(opt.Geometry, opt.Quantum, func(refs []trace.Ref) {
				if _, err := batched.ApplyBatch(refs); err != nil && got == nil {
					got = err
				}
			})
			scalar, err := dsmnc.Build(b, dsmnc.Base(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := scalar.Apply(trace.Ref{PID: 0, Op: trace.Read, Addr: 0}); err != nil {
				t.Fatal(err)
			}
			want := scalar.Apply(trace.Ref{PID: 1, Op: op, Addr: a})
			if !errors.Is(got, sim.ErrBadRef) || want == nil || got.Error() != want.Error() {
				t.Errorf("%s: ApplyBatch error %v, want %v", name, got, want)
			}
		}
	}
}
