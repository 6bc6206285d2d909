package exp

import (
	"fmt"
	"sort"
	"strings"

	"rtltimer/internal/bog"
	"rtltimer/internal/core"
	"rtltimer/internal/dataset"
	"rtltimer/internal/metrics"
	"rtltimer/internal/synth"
)

// Series is a named list of (x, y) points used for the figures.
type Series struct {
	Name string
	X, Y []float64
}

// Figure is a reproducible figure: scatter series or histograms plus the
// summary statistics quoted in the paper's discussion of it.
type Figure struct {
	Title  string
	Series []Series
	Stats  map[string]float64
}

// CSV renders the figure's series as long-form CSV (series, x, y).
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range f.Series {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%g,%g\n", s.Name, s.X[i], s.Y[i])
		}
	}
	return b.String()
}

// Summary renders the figure stats for the experiment log.
func (f *Figure) Summary() string {
	var b strings.Builder
	b.WriteString(f.Title + "\n")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  series %-28s %5d points\n", s.Name, len(s.X))
	}
	keys := make([]string, 0, len(f.Stats))
	for k := range f.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s = %.3f\n", k, f.Stats[k])
	}
	return b.String()
}

func (s *Suite) designByName(name string) (*dataset.DesignData, int, error) {
	data, err := s.Data()
	if err != nil {
		return nil, 0, err
	}
	for i, dd := range data {
		if dd.Spec.Name == name {
			return dd, i, nil
		}
	}
	return nil, 0, fmt.Errorf("exp: design %q not in suite", name)
}

// Fig5a reproduces the pseudo-STA scatter for b18_1: per endpoint, the
// arrival time evaluated on each of the four representations versus the
// post-synthesis label. The representations do not match the netlist but
// carry clear patterns (R reported per variant).
func (s *Suite) Fig5a() (*Figure, error) {
	dd, _, err := s.designByName("b18_1")
	if err != nil {
		return nil, err
	}
	f := &Figure{Title: "Fig 5(a): RTL pseudo-STA vs netlist arrival (b18_1)", Stats: map[string]float64{}}
	for _, v := range bog.Variants() {
		rep := dd.Reps[v]
		f.Series = append(f.Series, Series{Name: v.String(), X: dd.EPLabels, Y: rep.EPPseudo})
		f.Stats["R_"+v.String()] = metrics.Pearson(dd.EPLabels, rep.EPPseudo)
	}
	return f, nil
}

// Fig5b reproduces the bit-wise prediction scatter for b18_1 using the
// cross-validated ensemble model.
func (s *Suite) Fig5b() (*Figure, error) {
	dd, di, err := s.designByName("b18_1")
	if err != nil {
		return nil, err
	}
	cv, err := s.crossValidate(bog.Variants(), false)
	if err != nil {
		return nil, err
	}
	p := cv[di]
	labels := dd.EPLabels
	f := &Figure{
		Title:  "Fig 5(b): bit-wise ensemble prediction vs label (b18_1)",
		Series: []Series{{Name: "En", X: labels, Y: p.BitAT}},
		Stats:  map[string]float64{"R": metrics.Pearson(labels, p.BitAT)},
	}
	return f, nil
}

// Fig5c reproduces the signal-wise prediction scatter for b18_1.
func (s *Suite) Fig5c() (*Figure, error) {
	dd, di, err := s.designByName("b18_1")
	if err != nil {
		return nil, err
	}
	cv, err := s.crossValidate(bog.Variants(), false)
	if err != nil {
		return nil, err
	}
	labels, preds, _ := core.SignalLabelVectors(dd, cv[di])
	return &Figure{
		Title:  "Fig 5(c): signal-wise prediction vs label (b18_1)",
		Series: []Series{{Name: "En", X: labels, Y: preds}},
		Stats:  map[string]float64{"R": metrics.Pearson(labels, preds)},
	}, nil
}

// Fig5d reproduces the optimized arrival-time distribution for b18_1:
// histograms of endpoint arrival before and after prediction-guided
// group_path + retime synthesis.
func (s *Suite) Fig5d() (*Figure, error) {
	dd, di, err := s.designByName("b18_1")
	if err != nil {
		return nil, err
	}
	cv, err := s.crossValidate(bog.Variants(), false)
	if err != nil {
		return nil, err
	}
	opt, err := optSynth(dd, core.PredictedPlan(dd, cv[di]))
	if err != nil {
		return nil, err
	}
	f := &Figure{Title: "Fig 5(d): optimized arrival distribution (b18_1)", Stats: map[string]float64{}}
	for _, sr := range []struct {
		name string
		ats  []float64
		wns  float64
		tns  float64
	}{
		{"default", dd.Synth.Timing.EndpointAT, dd.Synth.Timing.WNS, dd.Synth.Timing.TNS},
		{"optimized", opt.Timing.EndpointAT, opt.Timing.WNS, opt.Timing.TNS},
	} {
		centers, counts := metrics.Histogram(sr.ats, 24)
		ys := make([]float64, len(counts))
		for i, c := range counts {
			ys[i] = float64(c)
		}
		f.Series = append(f.Series, Series{Name: sr.name, X: centers, Y: ys})
		f.Stats["WNS_"+sr.name] = sr.wns
		f.Stats["TNS_"+sr.name] = sr.tns
	}
	return f, nil
}

// Fig4 reproduces the option-effect illustration: arrival histograms of
// one design under default synthesis, group_path only, retime only, and
// both (guided by ground-truth ranking, as the figure is conceptual).
func (s *Suite) Fig4() (*Figure, error) {
	dd, _, err := s.designByName("b17")
	if err != nil {
		return nil, err
	}
	plan := core.LabelPlan(dd)
	runs := []struct {
		name string
		opts synth.Options
	}{
		{"default", synth.Options{Period: dd.Period, Seed: dd.Spec.Seed}},
		{"w/ group", synth.Options{Period: dd.Period, Seed: dd.Spec.Seed,
			Groups: plan.Groups, GroupWeights: plan.Weights, SizingRounds: 42}},
		{"w/ retime", synth.Options{Period: dd.Period, Seed: dd.Spec.Seed,
			RetimeRefs: plan.Retime}},
		{"w/ retime+group", synth.Options{Period: dd.Period, Seed: dd.Spec.Seed,
			Groups: plan.Groups, GroupWeights: plan.Weights, RetimeRefs: plan.Retime, SizingRounds: 42}},
	}
	f := &Figure{Title: "Fig 4: optimization options in logic synthesis (b17)", Stats: map[string]float64{}}
	for _, r := range runs {
		res, err := synth.Run(dd.Design, r.opts)
		if err != nil {
			return nil, err
		}
		centers, counts := metrics.Histogram(res.Timing.EndpointAT, 24)
		ys := make([]float64, len(counts))
		for i, c := range counts {
			ys[i] = float64(c)
		}
		f.Series = append(f.Series, Series{Name: r.name, X: centers, Y: ys})
		f.Stats["WNS "+r.name] = res.Timing.WNS
		f.Stats["TNS "+r.name] = res.Timing.TNS
	}
	return f, nil
}
