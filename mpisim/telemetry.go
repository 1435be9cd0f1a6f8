package mpisim

import (
	"mpicontend/internal/experiments"
	"mpicontend/internal/telemetry"
)

// Telemetry is the deterministic observability plane: attach one to a
// benchmark config's Tel field (or obtain one from TraceExperimentMode)
// and export the recording with Perfetto() and Profile(). Recording keys
// entirely off the simulated clock, so same-seed runs export
// byte-identical artifacts. A nil *Telemetry means disabled.
type Telemetry = telemetry.Recorder

// NewTelemetry returns an enabled telemetry plane.
func NewTelemetry() *Telemetry { return telemetry.New() }

// FigureData is the machine-readable form of a Figure (the flat JSON
// results schema shared by the telemetry exporter and mpistorm -json).
type FigureData = telemetry.FigureJSON

// TraceExperimentMode runs the traced representative point of an
// experiment with the telemetry plane attached and returns the recording
// plus a one-line description of the traced workload. progress sets the
// progress mode for the probes that honour it (the N2N-shaped ones). The
// run is deterministic: the same arguments yield byte-identical exports.
func TraceExperimentMode(id string, quick bool, seed uint64, progress ProgressMode) (*Telemetry, string, error) {
	t := NewTelemetry()
	desc, err := experiments.Probe(id,
		experiments.Options{Quick: quick, Seed: seed, Progress: progress}, t)
	if err != nil {
		return nil, "", err
	}
	return t, desc, nil
}
