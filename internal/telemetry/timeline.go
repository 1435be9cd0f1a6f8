package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// threadGlyphs label threads in the ownership timeline.
const threadGlyphs = "0123456789abcdefghijklmnopqrstuvwxyz"

// Timeline renders the named lock's ownership over time from its hold
// spans as one row of width columns. Each column is a time bucket showing
// the thread that started the most holds in it, uppercase when several
// threads did, so monopolization shows up as long runs of one glyph and
// FCFS arbitration as a regular weave. A per-thread share legend follows,
// then the lock's LongestRunThread and MaxThreadShare as LockProfile
// reports them. Safe on a nil recorder.
func (r *Recorder) Timeline(lock string, width int) string {
	if width <= 0 {
		width = 64
	}
	ls := newLockState()
	var holds []*Span
	if id := r.lockID(lock); id >= 0 {
		for i := range r.spans {
			if s := &r.spans[i]; s.Kind == SpanHold && s.Lock == id {
				holds = append(holds, s)
				ls.observeHold(s, s.End-s.Start)
			}
		}
	}
	if len(holds) == 0 {
		return "(no holds recorded)\n"
	}
	lp := ls.profile(lock)

	start, end := holds[0].Start, holds[0].Start
	glyphs := map[int32]byte{} // in order of first appearance
	var threads []int32
	for _, s := range holds {
		start, end = min(start, s.Start), max(end, s.Start)
		if _, ok := glyphs[s.Thread]; !ok {
			glyphs[s.Thread] = threadGlyphs[len(threads)%len(threadGlyphs)]
			threads = append(threads, s.Thread)
		}
	}
	span := end + 1 - start
	// Columns count holds per thread in thread-id order, so the lowest id
	// wins ties.
	sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
	col := map[int32]int{}
	for i, th := range threads {
		col[th] = i
	}
	counts := make([]int, width*len(threads))
	for _, s := range holds {
		b := int((s.Start - start) * int64(width) / span)
		counts[b*len(threads)+col[s.Thread]]++
	}

	line := make([]byte, width)
	for b := range line {
		line[b] = '.'
		best, bestN, total := 0, 0, 0
		for i, n := range counts[b*len(threads) : (b+1)*len(threads)] {
			total += n
			if n > bestN {
				best, bestN = i, n
			}
		}
		if total == 0 {
			continue
		}
		line[b] = glyphs[threads[best]]
		if total > bestN && line[b] >= 'a' && line[b] <= 'z' {
			line[b] -= 'a' - 'A' // mixed bucket: contention turnover
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s ownership over %.1fus (%d acquisitions):\n", lock, float64(span)/1000, len(holds))
	sb.WriteString("  |" + string(line) + "|\n")
	for _, th := range threads {
		fmt.Fprintf(&sb, "  %c = thread %-3d %5.1f%% of acquisitions\n",
			glyphs[th], th, 100*float64(ls.byThread[th])/float64(len(holds)))
	}
	fmt.Fprintf(&sb, "  longest same-thread run: %d   max thread share: %.1f%%\n",
		lp.LongestRunThread, 100*lp.MaxThreadShare)
	return sb.String()
}

// lockID returns the id of the first lock registered under name, or -1.
func (r *Recorder) lockID(name string) int32 {
	if r == nil {
		return -1
	}
	for i, n := range r.lockNames {
		if n == name {
			return int32(i)
		}
	}
	return -1
}
