package main

import (
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// shareLayers are the packages whose flat CPU share the traced run
// reports as cpu.<layer>_share; everything else folds into cpu.other_share.
var shareLayers = []string{"runtime", "sim", "simlock", "mpi", "fabric", "telemetry"}

// topRow matches one row of `go tool pprof -top`:
// flat flat% sum% cum cum% function.
var topRow = regexp.MustCompile(`^\s*(\S+)\s+\S+%\s+\S+%\s+\S+\s+\S+%\s+(.+?)\s*$`)

// frameLayer attributes a function name to a layer: runtime.* and
// internal/runtime/* to "runtime", mpicontend/internal/<pkg>[/...] to
// <pkg>, anything else to "" (other).
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	const mod = "mpicontend/internal/"
	if !strings.HasPrefix(fn, mod) {
		return ""
	}
	rest := fn[len(mod):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// parseDuration reads a pprof sample value such as "0", "10ms", "1.20s"
// or "2.50mins" as seconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64) // the bare "0"
}

// foldTop folds `go tool pprof -top` text into flat-CPU shares per layer.
// The returned map has one entry per name in shareLayers plus "other",
// summing to 1; the second result is the total flat seconds folded.
func foldTop(text string) (map[string]float64, float64, error) {
	byLayer := map[string]float64{}
	var total float64
	header := false
	for _, line := range strings.Split(text, "\n") {
		if !header {
			header = strings.Contains(line, "flat%") && strings.Contains(line, "cum%")
			continue
		}
		m := topRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := parseDuration(m[1])
		if err != nil {
			return nil, 0, fmt.Errorf("pprof row %q: %w", line, err)
		}
		total += v
		byLayer[frameLayer(m[2])] += v
	}
	if !header {
		return nil, 0, fmt.Errorf("pprof -top output has no header row")
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof -top output has no samples")
	}
	shares := map[string]float64{}
	other := total
	for _, l := range shareLayers {
		shares[l] = byLayer[l] / total
		other -= byLayer[l]
	}
	shares["other"] = other / total
	return shares, total, nil
}

// profileShares runs the toolchain's pprof over a CPU profile of binary
// and folds its flat listing per layer.
func profileShares(binary, profile string) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		binary, profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}
