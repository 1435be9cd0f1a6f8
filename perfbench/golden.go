package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"

	"mpicontend/mpisim"
)

// goldenPath is the committed quick-output golden, relative to the
// repository root. The benchmark reads it and never writes it.
const goldenPath = "mpisim/testdata/quick_golden.txt"

// parseGolden reads "<experiment-id> <sha256-hex>" lines; blank lines and
// '#' comments are skipped. A malformed line or a repeated id is an error.
func parseGolden(r io.Reader) (map[string]string, error) {
	m := map[string]string{}
	sc := bufio.NewScanner(r)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || len(f[1]) != 64 {
			return nil, fmt.Errorf("golden line %d: malformed %q", ln, line)
		}
		if _, dup := m[f[0]]; dup {
			return nil, fmt.Errorf("golden line %d: repeated id %q", ln, f[0])
		}
		m[f[0]] = f[1]
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read golden: %w", err)
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("golden: no entries")
	}
	return m, nil
}

// experimentHash hashes an experiment's figures exactly as cmd/mpistorm
// prints them, the bytes the golden pins.
func experimentHash(figs []mpisim.Figure) string {
	var b strings.Builder
	for _, f := range figs {
		fmt.Fprintf(&b, "== %s — %s ==\n%s\n", f.ID, f.Title, f.Text)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}
