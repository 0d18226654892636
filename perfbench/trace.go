package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/genet-go/genet/internal/obs"
)

// traceWriter keeps the traced run's spans in memory, one Chrome-trace
// process per recorder, and writes them once when the run ends. A nil
// traceWriter (untraced runs) ignores everything.
type traceWriter struct {
	events []obs.TraceEvent
	pid    int
}

func (t *traceWriter) add(rec *obs.Recorder) {
	if t == nil {
		return
	}
	t.pid++
	for _, ev := range rec.Events() {
		ev.PID = t.pid
		t.events = append(t.events, ev)
	}
}

// write stores the spans as Chrome trace_event JSON (Perfetto-loadable).
func (t *traceWriter) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	b, err := json.Marshal(obs.TraceFile{TraceEvents: t.events, DisplayTimeUnit: "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
