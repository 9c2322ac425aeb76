package bench

import (
	"bytes"
	"fmt"
	"testing"
)

// quickTrafficOpt keeps the grid cheap for unit tests.
func quickTrafficOpt(parallel int) Options {
	return Options{Scale: 0.125, Parallel: parallel}
}

func TestTrafficShape(t *testing.T) {
	res, err := Traffic(quickTrafficOpt(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

// TestTrafficParallelIdentity pins the fan-out determinism contract on the
// per-tenant dump sections: every grid cell's traffic.* stats — per-tenant
// latency histograms, accounting counters, fairness summary — must be
// byte-identical whether the grid ran sequentially or across a worker
// pool. Each cell owns its whole machine, so worker scheduling must not be
// able to leak into simulated results.
func TestTrafficParallelIdentity(t *testing.T) {
	seq, err := Traffic(quickTrafficOpt(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Traffic(quickTrafficOpt(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(seq.Rows), len(par.Rows))
	}
	for i := range seq.Rows {
		s, p := seq.Rows[i], par.Rows[i]
		if s.Dump != p.Dump {
			t.Fatalf("cell %d (%d-tenant %s-loop): parallel dump section differs from sequential:\n%s",
				i, s.Tenants, s.Loop, firstDumpDiff([]byte(s.Dump), []byte(p.Dump)))
		}
		if s != p {
			t.Fatalf("cell %d rows differ beyond dumps:\n  seq: %+v\n  par: %+v", i, s, p)
		}
	}
}

// firstDumpDiff renders the first diverging line of two stats dumps.
func firstDumpDiff(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  seq: %s\n  par: %s", i+1, al[i], bl[i])
		}
	}
	return "dumps differ in length only"
}
