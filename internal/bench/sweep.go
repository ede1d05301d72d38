package bench

import "time"

// runJobs maps f over cfgs one at a time, so each solve has the whole
// branch & bound pool and its wall clock is its own. Results land at
// the index of their config; the first error stops the sweep.
func runJobs[T any](cfgs []Config, f func(Config) (T, error)) ([]T, error) {
	out := make([]T, len(cfgs))
	for i, cfg := range cfgs {
		r, err := f(cfg)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// aggregate folds the seed runs of one swept parameter value into a
// Point, preserving the individual runs for machine-readable reports.
func aggregate(x, capacity int, runs []Result) Point {
	p := Point{X: x, Capacity: capacity, Runs: append([]Result(nil), runs...)}
	var total time.Duration
	for _, res := range runs {
		total += res.Time
		p.Statuses = append(p.Statuses, res.Status)
		if p.Min == 0 || res.Time < p.Min {
			p.Min = res.Time
		}
		if res.Time > p.Max {
			p.Max = res.Time
		}
	}
	p.Mean = total / time.Duration(len(runs))
	return p
}
