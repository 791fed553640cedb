package instrument_test

import (
	"bytes"
	"testing"

	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/sim"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// TestK1GoldenEquivalence: requesting K=1 explicitly is byte-for-byte the
// classic scheme — for every suite workload, in dense-table, hashed-table,
// and CCT counting — down to the emitted program text and the encoded
// profile. This is the backstop for the seed's golden results: the k
// refactor must be invisible until K > 1 is asked for.
func TestK1GoldenEquivalence(t *testing.T) {
	type cfg struct {
		name string
		mode instrument.Mode
		hash bool
	}
	cfgs := []cfg{
		{"dense", instrument.ModePathFreq, false},
		{"hash", instrument.ModePathFreq, true},
		{"cct", instrument.ModeContextFlow, false},
	}
	for _, w := range workload.Suite() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Build(workload.Test)
			for _, c := range cfgs {
				runOne := func(k int) (string, []byte) {
					opts := instrument.DefaultOptions(c.mode)
					opts.K = k // 0 = unset; 1 = explicit classic
					if c.hash {
						opts.HashPathThreshold = 1
					}
					plan, err := instrument.Instrument(prog, opts)
					if err != nil {
						t.Fatalf("%s k=%d: %v", c.name, k, err)
					}
					m := sim.New(plan.Prog, sim.DefaultConfig())
					m.PMU().Select(hpm.EvDCacheMiss, hpm.EvInsts)
					rt := plan.Wire(m)
					if _, err := m.Run(); err != nil {
						t.Fatalf("%s k=%d: %v", c.name, k, err)
					}
					bw := wire.NewBatchWriter()
					if err := bw.AddProfile(rt.ExtractProfile()); err != nil {
						t.Fatalf("%s k=%d: %v", c.name, k, err)
					}
					return plan.Prog.String(), bw.Frame()
				}
				prog0, prof0 := runOne(0)
				prog1, prof1 := runOne(1)
				if prog0 != prog1 {
					t.Errorf("%s: K=1 emits different code than unset K", c.name)
				}
				if !bytes.Equal(prof0, prof1) {
					t.Errorf("%s: K=1 profile bytes differ from unset K", c.name)
				}
			}
		})
	}
}
