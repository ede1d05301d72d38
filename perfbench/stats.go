package main

import (
	"fmt"
	"sort"
)

// sample is one timed answer's latency and the item that produced it.
type sample struct {
	ms   float64
	item string
}

func sortedSamples(xs []sample) []sample {
	out := append([]sample(nil), xs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ms < out[j].ms })
	return out
}

// median of ascending samples: the middle one, or the mean of the
// middle two.
func median(s []sample) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2].ms
	}
	return (s[n/2-1].ms + s[n/2].ms) / 2
}

// tailRank is the 0-based rank of the highest order statistic with at
// least 10 samples beyond it, or -1 when there are 20 samples or fewer
// and the tail is the median.
func tailRank(n int) int {
	if n <= 20 {
		return -1
	}
	return n - 11
}

// tail returns the tail latency of ascending samples, the percentile
// it stands for, and how many samples lie beyond it.
func tail(s []sample) (ms, pct float64, beyond int) {
	r := tailRank(len(s))
	if r < 0 {
		return median(s), 50, len(s) / 2
	}
	return s[r].ms, 100 * float64(r+1) / float64(len(s)), len(s) - 1 - r
}

// gapNote says whether the order statistic at rank r of ascending
// samples sits inside one item's cluster of repeats or on the gap
// between two items, and how far its neighbours are. An order
// statistic on a wide gap between two items flips between them with
// small noise, so a steady benchmark keeps its percentiles off such
// gaps.
func gapNote(s []sample, r int) string {
	if r < 0 || r >= len(s) {
		return "n/a"
	}
	note := fmt.Sprintf("rank %d/%d = %s %.1fms", r+1, len(s), s[r].item, s[r].ms)
	for _, nb := range []int{r - 1, r + 1} {
		if nb < 0 || nb >= len(s) {
			continue
		}
		rel := 100 * (s[nb].ms - s[r].ms) / s[r].ms
		if s[nb].item == s[r].item {
			note += fmt.Sprintf("; neighbour same item (%+.1f%%)", rel)
		} else {
			note += fmt.Sprintf("; neighbour %s (%+.1f%%)", s[nb].item, rel)
		}
	}
	return note
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// itemMedians lists each item's median latency, fastest first.
func itemMedians(sorted []sample) string {
	by := map[string][]sample{}
	var names []string
	for _, s := range sorted {
		if by[s.item] == nil {
			names = append(names, s.item)
		}
		by[s.item] = append(by[s.item], s)
	}
	meds := map[string]float64{}
	for _, n := range names {
		meds[n] = median(by[n])
	}
	sort.SliceStable(names, func(i, j int) bool { return meds[names[i]] < meds[names[j]] })
	out := ""
	for _, n := range names {
		out += fmt.Sprintf(" %s=%.1f", n, meds[n])
	}
	return out
}
