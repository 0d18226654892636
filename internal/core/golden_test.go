package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"math/rand"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/nn"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current results")

// goldenRun pins a tiny end-to-end Trainer run: the checkpoint test-reward
// vector must be bit-identical across commits, worker counts, and race-mode
// runs. Kernel records which numeric path produced the numbers — the scalar
// and AVX2 kernels are each internally deterministic but differ from each
// other, so the comparison only applies when the paths match.
type goldenRun struct {
	Kernel  string    `json:"kernel"`
	Rewards []float64 `json:"rewards"`
	// AgentSHA256 digests the final serialized agent state (weights, log-std
	// and optimizer moments), pinning every float the run produced rather
	// than only the evaluated rewards. Empty in goldens that predate it.
	AgentSHA256 string `json:"agent_sha256,omitempty"`
}

const (
	goldenPath   = "testdata/golden_abr_trainer.json"
	goldenCCPath = "testdata/golden_cc_trainer.json"
)

// TestGoldenTrainerDeterminism runs a fixed-seed miniature Genet curriculum
// on the real ABR harness and compares the after-round evaluation rewards
// against the committed golden file, exactly. Any drift — a reordered
// reduction, an rng consumed in a new place, a changed default — fails here
// before it can silently change every experiment. Refresh intentionally with
//
//	go test ./internal/core/ -run TestGoldenTrainerDeterminism -update
func TestGoldenTrainerDeterminism(t *testing.T) {
	h, err := NewABRHarness(env.ABRSpace(env.RL1), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	h.EnvsPerIter, h.StepsPerIter = 2, 80

	evalCfg := h.Space().Default(nil)
	var rewards []float64
	tr := NewTrainer(h, Options{
		Rounds:        2,
		ItersPerRound: 2,
		BOSteps:       3,
		EnvsPerEval:   1,
		WarmupIters:   2,
		AfterRound: func(round int) {
			// Fresh rng per checkpoint: the evaluation must not perturb the
			// training stream it is observing.
			ev := h.Eval(evalCfg, 2, 0, rand.New(rand.NewSource(int64(100+round))))
			rewards = append(rewards, ev.RL)
		},
	})
	if _, err := tr.Run(rand.New(rand.NewSource(11))); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenPath, goldenRun{Kernel: nn.KernelName(), Rewards: rewards})
}

// TestGoldenCCTrainerDeterminism is TestGoldenTrainerDeterminism for the
// congestion-control harness: the Gaussian/PPO agent's update path (PPO
// epochs, the batched policy/value backward, Adam on nets and log-std) is
// pinned by the after-round rewards and by a digest of the final agent
// state. Refresh intentionally with
//
//	go test ./internal/core/ -run TestGoldenCCTrainerDeterminism -update
func TestGoldenCCTrainerDeterminism(t *testing.T) {
	h, err := NewCCHarness(env.CCSpace(env.RL1), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	// Small iterations that still span several 64-row PPO minibatches.
	h.EnvsPerIter, h.StepsPerIter = 2, 200

	evalCfg := h.Space().Default(nil)
	var rewards []float64
	tr := NewTrainer(h, Options{
		Rounds:        2,
		ItersPerRound: 2,
		BOSteps:       3,
		EnvsPerEval:   1,
		WarmupIters:   2,
		AfterRound: func(round int) {
			ev := h.Eval(evalCfg, 2, 0, rand.New(rand.NewSource(int64(100+round))))
			rewards = append(rewards, ev.RL)
		},
	})
	if _, err := tr.Run(rand.New(rand.NewSource(11))); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := h.SaveAgentState(&state); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(state.Bytes())
	checkGolden(t, goldenCCPath, goldenRun{
		Kernel: nn.KernelName(), Rewards: rewards, AgentSHA256: hex.EncodeToString(sum[:]),
	})
}

// checkGolden compares got against the golden file at goldenPath, or
// rewrites the file under -update.
func checkGolden(t *testing.T, goldenPath string, got goldenRun) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (kernel %s, %d checkpoints)", goldenPath, got.Kernel, len(got.Rewards))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	var want goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", goldenPath, err)
	}
	if want.Kernel != got.Kernel {
		t.Skipf("golden recorded on %q kernels, this machine runs %q", want.Kernel, got.Kernel)
	}
	if len(got.Rewards) != len(want.Rewards) {
		t.Fatalf("checkpoint count = %d, golden has %d", len(got.Rewards), len(want.Rewards))
	}
	for i := range want.Rewards {
		if got.Rewards[i] != want.Rewards[i] {
			t.Fatalf("checkpoint %d: reward = %.17g, golden %.17g (bit-exact determinism broken)",
				i, got.Rewards[i], want.Rewards[i])
		}
	}
	if want.AgentSHA256 != got.AgentSHA256 {
		t.Fatalf("final agent state sha256 = %s, golden %s (bit-exact determinism broken)",
			got.AgentSHA256, want.AgentSHA256)
	}
}
