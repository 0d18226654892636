package serve

import (
	"testing"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
)

// decideAllocBudget pins the decide hot path's allocation count with
// observability NOT attached (observer nil, the default): 1 allocation per
// decision, the policy network's Forward buffer shared by all its layer
// outputs. The trace/span/access-log hooks must cost exactly one nil check
// each when off; any new allocation here is a regression against that
// contract.
const decideAllocBudget = 1

func TestDecideHotPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *metrics.Registry
	}{
		{"metrics-on", metrics.NewRegistry()},
		{"metrics-off", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := abrServer(t, tc.reg)
			obsVec := make([]float64, abr.ObsSize)
			for i := 0; i < 30; i++ {
				if _, err := s.Decide(obsVec); err != nil {
					t.Fatal(err)
				}
			}
			n := testing.AllocsPerRun(50, func() { s.Decide(obsVec) })
			if n > decideAllocBudget {
				t.Fatalf("decide hot path allocates %.0f/op with recording off, budget %d", n, decideAllocBudget)
			}
		})
	}
}

// TestDecideUnsampledAllocs: with an observer attached but this request not
// span-sampled, the only extra allocation permitted is the access-log line
// (JSON encode + write). The span plumbing itself must stay alloc-free on
// the unsampled path.
func TestDecideUnsampledAllocs(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := abrServer(t, reg)
	// Recorder on, huge sampling stride, no access log: after warmup no
	// request in the measured window is sampled, so spans must cost nothing.
	s.Instrument(NewObserver(ObserverConfig{
		Recorder:    obs.NewRecorder(1024),
		SLO:         NewSLOTracker(SLOConfig{}),
		SampleEvery: 1 << 30,
		Seed:        1,
	}))
	obsVec := make([]float64, abr.ObsSize)
	for i := 0; i < 30; i++ {
		if _, err := s.Decide(obsVec); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(50, func() { s.Decide(obsVec) })
	if n > decideAllocBudget {
		t.Fatalf("unsampled instrumented decide allocates %.0f/op, budget %d", n, decideAllocBudget)
	}
}
