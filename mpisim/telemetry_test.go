package mpisim

import (
	"bytes"
	"strings"
	"testing"

	"mpicontend/internal/telemetry"
)

func TestTelemetryAttachedToFacade(t *testing.T) {
	tel := NewTelemetry()
	r, err := Throughput(ThroughputConfig{Lock: Mutex, Threads: 4,
		MsgBytes: 64, Windows: 2, Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	if r.Messages == 0 {
		t.Fatal("no messages")
	}
	if len(tel.Spans()) == 0 {
		t.Fatal("telemetry attached but no spans recorded")
	}
	if err := telemetry.ValidateTrace(tel.Perfetto()); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	prof, err := tel.Profile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateProfile(prof); err != nil {
		t.Fatalf("profile invalid: %v", err)
	}
	if !strings.Contains(tel.Profile().Text(), "lock") {
		t.Fatal("profile text missing lock section")
	}
}

func TestTraceExperiment(t *testing.T) {
	t1, desc, err := TraceExperimentMode("fig8a", true, 0, PollingProgress)
	if err != nil {
		t.Fatal(err)
	}
	if desc == "" || len(t1.Spans()) == 0 {
		t.Fatalf("degenerate trace: desc=%q spans=%d", desc, len(t1.Spans()))
	}
	t2, _, err := TraceExperimentMode("fig8a", true, 0, PollingProgress)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Perfetto(), t2.Perfetto()) {
		t.Fatal("same-seed traces differ")
	}

	if _, _, err := TraceExperimentMode("fig99", true, 0, PollingProgress); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentFigureData(t *testing.T) {
	figs, err := RunExperimentMode("fig2b", true, 0, PollingProgress)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) == 0 || figs[0].Data == nil {
		t.Fatal("figure data missing")
	}
	f := figs[0]
	// The rendered text is exactly the ASCII view of the exported data.
	if f.Text != f.Data.ASCII() {
		t.Fatal("figure text diverged from its JSON form")
	}
	data, err := f.Data.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateFigure(data); err != nil {
		t.Fatalf("figure JSON invalid: %v", err)
	}
}
