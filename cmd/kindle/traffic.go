package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"kindle/internal/core"
	"kindle/internal/machine"
	"kindle/internal/obs/monitor"
	"kindle/internal/persist"
	"kindle/internal/traffic"
)

// trafficFlags carries the flag subset the traffic mode consumes.
type trafficFlags struct {
	spec    string
	tenants int
	seed    uint64
	seedSet bool
	small   bool

	persistMode string
	interval    time.Duration

	stats       bool
	statsOut    string
	monitorAddr string
	monitorHold time.Duration
}

// trafficProgress is the /progress payload of a traffic run.
type trafficProgress struct {
	OpsDone  int64   `json:"ops_done"`
	OpsTotal int64   `json:"ops_total"`
	Fraction float64 `json:"fraction"`
	Tenants  int     `json:"tenants"`
	Done     bool    `json:"done"`
}

// runTraffic drives the multi-tenant synthetic-load engine: N gemOS
// processes time-sliced on one machine, contending for shared DRAM/NVM and
// (with -persist) checkpoint bandwidth. Same seed + spec ⇒ byte-identical
// stats dumps.
func runTraffic(fl trafficFlags) {
	specStr := fl.spec
	if specStr == "default" {
		specStr = ""
	}
	spec, err := traffic.ParseSpec(specStr)
	if err != nil {
		fatal(err)
	}
	if fl.tenants > 0 {
		spec.Tenants = fl.tenants
	}
	if fl.seedSet {
		spec.Seed = fl.seed
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}

	cfg := machine.DefaultConfig()
	if fl.small {
		cfg = machine.TestConfig()
	}
	f := core.New(cfg)

	var progDone, progTotal atomic.Int64
	var finished atomic.Bool
	var mon *monitor.Server
	if fl.monitorAddr != "" {
		progTotal.Store(int64(spec.Tenants * spec.Ops))
		mon, err = monitor.Listen(fl.monitorAddr, monitor.Options{
			Stats: f.M.Stats,
			Progress: func() any {
				p := trafficProgress{
					OpsDone:  progDone.Load(),
					OpsTotal: progTotal.Load(),
					Tenants:  spec.Tenants,
					Done:     finished.Load(),
				}
				switch {
				case p.Done:
					p.Fraction = 1
				case p.OpsTotal > 0:
					p.Fraction = float64(p.OpsDone) / float64(p.OpsTotal)
				}
				return p
			},
		})
		if err != nil {
			fatal(err)
		}
		defer mon.Close()
		fmt.Fprintf(os.Stderr, "monitor: listening on http://%s\n", mon.Addr())
	}

	switch fl.persistMode {
	case "":
	case "rebuild":
		_, err = f.EnablePersistence(persist.Rebuild, fl.interval)
	case "persistent":
		_, err = f.EnablePersistence(persist.Persistent, fl.interval)
	default:
		fatal(fmt.Errorf("unknown persistence scheme %q", fl.persistMode))
	}
	if err != nil {
		fatal(err)
	}
	if mgr := f.Manager(); mgr != nil {
		mgr.Start()
	}

	fmt.Printf("traffic: %d tenants, %d ops each, %s %s-loop, seed %d\n",
		spec.Tenants, spec.Ops, spec.Arrival, spec.Loop, spec.Seed)
	var onOp func(done, total int)
	if mon != nil {
		onOp = func(done, _ int) { progDone.Store(int64(done)) }
	}
	res, err := f.RunTraffic(spec, onOp)
	if err != nil {
		fatal(err)
	}
	finished.Store(true)

	fmt.Printf("completed %d ops in %.3f ms simulated (%d cycles)\n",
		res.Ops, f.M.ElapsedMillis(), f.M.Clock.Now())
	fmt.Printf("latency cycles: mean %.0f  p50 %d  p95 %d  p99 %d\n",
		res.MeanLat, res.P50, res.P95, res.P99)
	fmt.Printf("fairness (Jain, per-tenant mean latency): %.4f\n", res.Jain)
	for _, t := range res.Tenants {
		kind := "dram"
		if t.NVM {
			kind = "nvm"
		}
		fmt.Printf("  %s %-4s ops=%-6d mean=%-8.0f p99=%-8d cpu=%-10d faults=%-5d resident=%-5d switches=%d\n",
			t.Name, kind, t.Ops, t.MeanLat, t.P99, t.Acct.CPUCycles, t.Acct.Faults, t.Acct.ResidentPages, t.Acct.Switches)
	}

	if fl.stats {
		fmt.Print(f.M.Stats.Dump(""))
	}
	if fl.statsOut != "" {
		sf, err := os.Create(fl.statsOut)
		if err != nil {
			fatal(err)
		}
		werr := f.M.Stats.WriteStatsFile(sf)
		if cerr := sf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("stats written to %s\n", fl.statsOut)
	}
	if mon != nil && fl.monitorHold > 0 {
		fmt.Fprintf(os.Stderr, "monitor: run complete; holding endpoint for %s\n", fl.monitorHold)
		time.Sleep(fl.monitorHold)
	}
}
