package experiments

import (
	"errors"
	"time"

	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/workload"
)

// MultiPathResult compares Algorithm 1 with and without the §VI
// path-classification countermeasure against an attacker that rotates
// execution paths to smear its IPC→JGR delay distribution.
type MultiPathResult struct {
	Paths int
	// ClassifiedScore / UnclassifiedScore are the attacker's
	// suspicious-call counts under the two scoring modes over the same
	// recorded window, with the default (wide) pairing window. Periodic
	// attack traffic aliases across delay buckets there, so both stay
	// high — Algorithm 1 is already hard to evade by path smearing.
	ClassifiedScore   int64
	UnclassifiedScore int64
	// TightClassified / TightUnclassified rescore with a pairing window
	// just above the per-call delay, where only causal (call, add) pairs
	// match: here naive scoring credits only the best single path
	// (≈1/Paths of the calls) and classification recovers the full
	// count — the §VI refinement in its purest form.
	TightClassified   int64
	TightUnclassified int64
	TopBenignScore    int64
	AttackerKilled    bool
	Recovered         bool
}

// MultiPathStudy reproduces the §VI discussion: a multi-path attacker
// splits its calls across three execution paths of one interface; naive
// delay correlation only credits the best single path, while classifying
// calls by path signature first recovers the full count.
func MultiPathStudy(scale Scale) (*MultiPathResult, error) {
	dev, err := device.Boot(device.Config{Seed: 123})
	if err != nil {
		return nil, err
	}
	cfg := defenseThresholds(scale)
	cfg.KeepRaw = true
	def, err := defense.New(dev, cfg)
	if err != nil {
		return nil, err
	}
	sched := workload.NewScheduler(dev)
	if _, err := workload.Population(dev, sched, 10, 5, 2*time.Second); err != nil {
		return nil, err
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		return nil, err
	}
	// A slow-paced interface: the inter-call gap (≈70 ms) far exceeds
	// the per-path delays, so the tight-window rescoring below isolates
	// causal (call, add) pairs. Fast attackers alias regardless of path
	// smearing, as the wide-window numbers show.
	atk, err := workload.NewAttacker(dev, evil, "notification.enqueueToast")
	if err != nil {
		return nil, err
	}
	const paths = 3
	atk.SetPathCount(paths)
	sched.Add(atk)
	sched.Run(func() bool { return len(def.History()) > 0 }, 2_000_000)

	hist := def.History()
	if len(hist) == 0 {
		return nil, errors.New("defender never engaged")
	}
	det := hist[0]
	res := &MultiPathResult{Paths: paths, Recovered: det.Recovered}
	for _, s := range det.Scores {
		if s.Package == evil.Package() {
			res.ClassifiedScore = s.Score
		} else if s.Score > res.TopBenignScore {
			res.TopBenignScore = s.Score
		}
	}
	for _, k := range det.Killed {
		if k == evil.Package() {
			res.AttackerKilled = true
		}
	}

	// Rescore the same window under the three ablation configurations.
	scoreAs := func(c defense.Config) (int64, error) {
		abl, err := defense.New(dev, c)
		if err != nil {
			return 0, err
		}
		for _, s := range abl.ScoreWithDelta(&det.RawWindow, det.RawAddTimes, defense.DefaultDelta) {
			if s.Package == evil.Package() {
				return s.Score, nil
			}
		}
		return 0, nil
	}
	noClass := cfg
	noClass.DisablePathClassification = true
	if res.UnclassifiedScore, err = scoreAs(noClass); err != nil {
		return nil, err
	}
	// Tight pairing window: just above the slowest path's delay, so only
	// the causal pair of each call matches.
	tight := cfg
	tight.MaxDelay = 12 * time.Millisecond
	if res.TightClassified, err = scoreAs(tight); err != nil {
		return nil, err
	}
	tightNo := tight
	tightNo.DisablePathClassification = true
	if res.TightUnclassified, err = scoreAs(tightNo); err != nil {
		return nil, err
	}
	return res, nil
}
