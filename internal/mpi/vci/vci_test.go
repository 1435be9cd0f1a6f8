package vci

import "testing"

func TestSelectRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 16, 64} {
		for ctx := -2_000_001; ctx <= 8; ctx += 500_000 {
			v := Select(ctx, NoHint, n)
			if v < 0 || v >= n {
				t.Fatalf("Select(ctx=%d, n=%d) = %d out of range", ctx, n, v)
			}
		}
	}
}

func TestSelectDeterministic(t *testing.T) {
	for ctx := -50; ctx < 50; ctx++ {
		a := Select(ctx, NoHint, 16)
		b := Select(ctx, NoHint, 16)
		if a != b {
			t.Fatalf("ctx %d: %d vs %d", ctx, a, b)
		}
	}
}

// TestUnpinnedHashesContext pins the unpinned mapping to the splitmix64
// hash of the context id: every figure's shard placement depends on these
// exact values.
func TestUnpinnedHashesContext(t *testing.T) {
	want := map[int]int{0: 0, 1: 5, 2: 10, 3: 0, -2: 2, -1_000_000: 10}
	for ctx, v := range want {
		if got := Select(ctx, NoHint, 16); got != v {
			t.Errorf("Select(ctx=%d, NoHint, 16) = %d, want %d", ctx, got, v)
		}
	}
}

func TestExplicitHint(t *testing.T) {
	for hint := 0; hint < 8; hint++ {
		if got := Select(3, hint, 8); got != hint {
			t.Fatalf("hint %d mapped to %d", hint, got)
		}
	}
}

func TestExplicitHintOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range hint")
		}
	}()
	Select(0, 8, 8)
}

func TestSingleVCIAlwaysZero(t *testing.T) {
	for _, hint := range []int{NoHint, 0, 5} {
		if Select(123, hint, 1) != 0 {
			t.Fatalf("hint %d: n=1 must map to 0", hint)
		}
	}
}

func TestValidateCount(t *testing.T) {
	for _, n := range []int{0, 1, 16, MaxVCIs} {
		if err := Validate(n); err != nil {
			t.Fatalf("Validate(%d): %v", n, err)
		}
	}
	for _, n := range []int{-1, MaxVCIs + 1, 2048} {
		if err := Validate(n); err == nil {
			t.Fatalf("Validate(%d) accepted an illegal count", n)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{PerComm: "per-comm", Explicit: "explicit", Policy(9): "Policy(9)"}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("Policy(%d).String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

// TestNegativeCtxShadows: the runtime routes collective shadows (collCtx -
// ctx) and recovery traffic (agreeBase - ctx) over large negative
// contexts. They must map consistently and not all collapse onto VCI 0.
func TestNegativeCtxShadows(t *testing.T) {
	seen := map[int]bool{}
	for c := 0; c < 32; c++ {
		seen[Select(-1_000_000-c, NoHint, 16)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("recovery contexts landed on only %d/16 VCIs", len(seen))
	}
}
