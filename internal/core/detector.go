// Package core implements Bolt itself: the detector that combines the
// measurement layer (internal/probe) with the data-mining pipeline
// (internal/mining) to identify the type and characteristics of the
// applications sharing a host with the adversary (§3.2-3.3), including
// iterative re-profiling, the multi-co-resident disentangling paths, and
// the label/characteristics scoring rules used in the paper's evaluation.
package core

import (
	"strings"

	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/workload"
)

// Config tunes a Detector.
type Config struct {
	Recommender mining.RecommenderConfig
	// MaxIterations bounds one detection episode; the paper finds no
	// benefit past six (Fig. 7). 0 means 6.
	MaxIterations int
	// ExtraBench adds uncore benchmarks to every profiling iteration
	// (Fig. 10c sweeps this). 0 means none beyond the §3.2 default.
	ExtraBench int
	// DisableShutter turns shutter profiling off (ablation).
	DisableShutter bool
	// DisableMRC turns the miss-ratio-curve probe off (ablation; the §3.3
	// future-work signal for constant-load mixtures).
	DisableMRC bool
}

const (
	// shutterSamples is the number of brief samples per shutter window
	// (§3.3).
	shutterSamples = 20
	// stopSimilarity is the best-match similarity at which an episode stops
	// re-profiling. It is deliberately far above the 0.1 confidence floor:
	// the floor distinguishes "seen before" from "mixture/unseen", while
	// stopping early on a weak match wastes the remaining iterations'
	// sharpening.
	stopSimilarity = 0.75
	// minConfidence is the observation-confidence floor below which a
	// detection degrades to UnknownLabel instead of guessing (graceful
	// degradation under measurement faults; see Detection.Label). The score
	// blends the fraction of the recommender's Eq. 1 weight mass that was
	// directly observed with the raw observed-entry fraction, so it is 1
	// for a fully observed vector.
	minConfidence = 0.35
)

func (c Config) withDefaults() Config {
	if c.MaxIterations == 0 {
		c.MaxIterations = 6
	}
	return c
}

// Detector is a trained Bolt instance: the hybrid recommender plus the
// profiling policy. One Detector serves any number of adversary VMs.
//
// A Detector is immutable once Train returns: Detect and NewEpisode keep all
// mutable episode state outside it, and its recommender keeps its per-mask
// plans in pooled per-call scratch, never in itself. It is therefore safe for
// concurrent use by any number of goroutines — the parallel experiment
// runner depends on this, and so does TrainCached, whose Detectors of one
// recommender config share one *mining.Recommender. Anything added to
// Detector must preserve it or take a lock.
type Detector struct {
	Rec *mining.Recommender
	cfg Config
}

// Train builds a detector from the training workload specs (the paper's
// 120-application training set).
func Train(specs []workload.Spec, cfg Config) *Detector {
	return &Detector{Rec: mining.NewRecommender(labeledProfiles(specs), cfg.Recommender), cfg: cfg.withDefaults()}
}

// labeledProfiles is the training set the recommender learns from.
func labeledProfiles(specs []workload.Spec) []mining.LabeledProfile {
	profiles := make([]mining.LabeledProfile, len(specs))
	for i, s := range specs {
		profiles[i] = mining.LabeledProfile{
			Label:    s.Label,
			Class:    s.Class,
			Pressure: s.Base.Slice(),
		}
	}
	return profiles
}

// TrainingProfile returns the dense pressure vector of the first training
// profile labelled label, and whether the label exists.
func (d *Detector) TrainingProfile(label string) (sim.Vector, bool) {
	for _, p := range d.Rec.TrainingProfiles() {
		if p.Label == label {
			return sim.FromSlice(p.Pressure), true
		}
	}
	return sim.Vector{}, false
}

// Detection is the outcome of one detection episode against one host.
type Detection struct {
	// Result is the recommender output for the primary (strongest) signal.
	Result *mining.Result
	// CoResidents holds one entry per co-resident Bolt believes it
	// disentangled, strongest first. Entry 0 mirrors Result.
	CoResidents []*mining.Result
	// Iterations is how many profiling+mining rounds the episode used.
	Iterations int
	// Ticks is the total simulated time the episode consumed.
	Ticks sim.Tick
	// UsedShutter reports whether shutter profiling ran.
	UsedShutter bool
	// CoreShared reports whether any victim shared a core with Bolt.
	CoreShared bool
}

// UnknownLabel is what a degraded detection reports instead of a
// low-evidence guess.
const UnknownLabel = "unknown"

// Detect runs a full episode: up to MaxIterations steps, stopping early
// when the single-victim hypothesis is strong, then disentangles up to
// maxVictims co-residents.
func (d *Detector) Detect(s *sim.Server, adv *probe.Adversary, start sim.Tick, maxVictims int) Detection {
	e := d.NewEpisode(s, adv)
	var res *mining.Result
	for i := 0; i < d.cfg.MaxIterations; i++ {
		res = e.Step(start)
		if res.Best().Similarity >= stopSimilarity {
			break
		}
	}
	det := Detection{
		Result:      res,
		Iterations:  e.Iterations,
		Ticks:       e.Ticks,
		UsedShutter: e.UsedShutter,
		CoreShared:  e.CoreShared,
	}
	// Result keeps the single-victim hypothesis with the head of its
	// similarity ranking; CoResidents carries the mixture decomposition.
	det.CoResidents = e.Candidates(maxVictims)
	return det
}

// ProfileDetection is the outcome of one profile-only detection query: the
// recommender's ranked answer for a sparse observed pressure vector, plus
// the same graceful-degradation confidence scoring a full episode gets.
// This is the unit of work the detection service (internal/serve) answers;
// it skips the probing loop entirely — the caller already holds an observed
// profile — so it is a pure function of (detector, observed, known).
type ProfileDetection struct {
	// Result is the recommender output: completed pressure plus the head of
	// the similarity ranking.
	Result *mining.Result
	// Confidence scores the observation's evidence in [0, 1], exactly as
	// Episode.Confidence does for an episode.
	Confidence float64
}

// Unknown reports whether the query degraded below the confidence floor
// (same rule as Episode.Grade).
func (pd *ProfileDetection) Unknown() bool {
	return pd.Confidence < minConfidence || !pd.Result.Confident()
}

// Label returns the best-match label, or UnknownLabel when the evidence is
// too thin to support a guess (same rule as Episode.Grade).
func (pd *ProfileDetection) Label() string {
	if pd.Unknown() {
		return UnknownLabel
	}
	return pd.Result.Best().Label
}

// DetectProfile answers one profile-only query: completion of the missing
// resources, similarity ranking, and the graceful-degradation confidence
// score. known[j] marks the directly measured entries of observed. It is the
// only detection path; the service answers every request through it.
func (d *Detector) DetectProfile(observed []float64, known []bool) ProfileDetection {
	return ProfileDetection{Result: d.Rec.Detect(observed, known), Confidence: d.confidence(known)}
}

// DetectProfileBatch answers queries sharing one known mask: row i of the
// result is DetectProfile(observed[i], known). It remains only because the
// frozen benchmark/layers.go calls it, and goes when a benchmark PR retires
// mining.detect_batch16_us_per_row.
func (d *Detector) DetectProfileBatch(observed [][]float64, known []bool) []ProfileDetection {
	out := make([]ProfileDetection, len(observed))
	for i, obs := range observed {
		out[i] = d.DetectProfile(obs, known)
	}
	return out
}

// confidence scores how much evidence a combined observation mask carries:
// the fraction of the recommender's Eq. 1 weight mass (σₖ·|V[j][k]|)
// sitting on directly observed resources, blended with the raw
// observed-entry fraction. The weight-mass term makes losing a
// discriminative resource (say MemBW) cost more confidence than losing one
// the similarity stage barely reads.
func (d *Detector) confidence(known []bool) float64 {
	n := 0
	for _, k := range known {
		if k {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	frac := float64(n) / float64(len(known))
	return 0.7*d.Rec.ObservedWeightMass(known) + 0.3*frac
}

// LabelMatches implements the paper's correctness rule for application
// labels (§3.4): a detection is correct when it identifies the framework or
// service (e.g. Hadoop, memcached) AND either the algorithm (e.g. SVM on
// Hadoop) or the user-load characteristics (e.g. read- vs write-heavy).
// Labels here have the form class[:algorithm-or-mix[:params]].
//
// Per-class interpretation of the second token:
//   - analytics frameworks, SPEC, webservers, databases: it names the
//     algorithm or load mix and must match exactly;
//   - memcached: it encodes the read ratio; matching means agreeing on
//     read-mostly vs write-heavy, the characteristic the paper checks;
//   - classes whose variants are arbitrary instance ids (redis, storm,
//     graphx): identifying the service is the whole label.
func LabelMatches(detected, truth string) bool {
	if detected == "" || truth == "" {
		return false
	}
	dp := strings.SplitN(detected, ":", 3)
	tp := strings.SplitN(truth, ":", 3)
	if dp[0] != tp[0] {
		return false
	}
	switch dp[0] {
	case "redis", "storm", "graphx":
		return true
	case "memcached":
		if len(dp) < 2 || len(tp) < 2 {
			return false
		}
		dr, dok := readRatio(dp[1])
		tr, tok := readRatio(tp[1])
		if !dok || !tok {
			// A malformed ratio token carries no load-mix information, so
			// it can never support a match — in particular two equally
			// malformed labels must not "agree" on write-heavy.
			return false
		}
		return (dr >= readMostlyThreshold) == (tr >= readMostlyThreshold)
	}
	if len(dp) > 1 && len(tp) > 1 {
		return dp[1] == tp[1]
	}
	return len(dp) == len(tp) // both class-only labels
}

// readMostlyThreshold is the read percentage at or above which a memcached
// load mix counts as read-mostly (§3.4 checks read- vs write-heavy).
const readMostlyThreshold = 70

// readRatio parses a memcached "rdNN" load token into its read percentage.
// ok is false for malformed tokens: a missing "rd" prefix, no digits, a
// non-digit after the prefix, or a value beyond 100 (percentages only).
func readRatio(tok string) (pct int, ok bool) {
	digits := strings.TrimPrefix(tok, "rd")
	if digits == tok || digits == "" {
		return 0, false
	}
	n := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 100 {
			return 0, false
		}
	}
	return n, true
}

// ClassMatches reports whether the detected label's class matches the
// truth class.
func ClassMatches(detected, truthClass string) bool {
	if detected == "" {
		return false
	}
	return strings.SplitN(detected, ":", 2)[0] == truthClass
}

// CharacteristicsMatch implements the paper's weaker correctness rule
// (Fig. 12b): even without a label, Bolt may correctly identify the
// resources a job is sensitive to. It holds when the detected pressure
// vector's dominant resource matches the truth's, or the truth's dominant
// resource appears in the detected top two.
func CharacteristicsMatch(detected []float64, truth sim.Vector) bool {
	if len(detected) != sim.NumResources {
		return false
	}
	dv := sim.FromSlice(detected)
	truthDom := truth.Dominant()
	for _, r := range dv.TopK(2) {
		if r == truthDom {
			return true
		}
	}
	return false
}
