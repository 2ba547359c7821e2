package core

import (
	"sync/atomic"
	"time"
)

// Attribution accumulates host wall-clock time by pipeline stage across
// MasPar runs: constraint evaluation (the Check1/Check2 work of
// the propagation phases), the segmented scans of consistency
// maintenance, and the router transposes. It answers "where does an
// end-to-end parse spend its time" — the attribution BenchmarkEndToEndParse
// exports as eval-ns/op, scan-ns/op, and router-ns/op.
//
// All methods are safe on a nil receiver (a nil *Attribution disables
// timing entirely, which is the default) and safe for concurrent use, so
// one Attribution can aggregate a batch parsed by parallel workers.
type Attribution struct {
	EvalNs   atomic.Int64
	ScanNs   atomic.Int64
	RouterNs atomic.Int64
}

// start returns the stage start time, or the zero time when timing is
// disabled.
func (a *Attribution) start() time.Time {
	if a == nil {
		return time.Time{}
	}
	return time.Now()
}

func (a *Attribution) eval(t0 time.Time) {
	if a != nil {
		a.EvalNs.Add(int64(time.Since(t0)))
	}
}

func (a *Attribution) scan(t0 time.Time) {
	if a != nil {
		a.ScanNs.Add(int64(time.Since(t0)))
	}
}

func (a *Attribution) router(t0 time.Time) {
	if a != nil {
		a.RouterNs.Add(int64(time.Since(t0)))
	}
}
