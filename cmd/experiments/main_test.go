package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	var all []string
	for _, e := range experiments {
		all = append(all, e.name)
	}
	cases := []struct {
		run     string
		want    string // selected names in run order
		wantErr string // substring; "" = valid
	}{
		{run: "all", want: strings.Join(all, ",")},
		{run: "fig5d,all", want: strings.Join(all, ",")},
		{run: "table3,table2", want: "table2,table3"}, // run order, not -run order
		{run: "ablation-ens,table4,table4", want: "table4,ablation-ens"},
		{run: "nosuch", wantErr: `unknown experiment "nosuch"`},
		{run: "table2,tabel3", wantErr: `unknown experiment "tabel3"`},
		{run: "table2,", wantErr: `unknown experiment ""`},
		{run: "", wantErr: `unknown experiment ""`},
	}
	for _, tc := range cases {
		got, err := selectExperiments(tc.run)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("selectExperiments(%q) error = %v, want one containing %q", tc.run, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectExperiments(%q): %v", tc.run, err)
			continue
		}
		var names []string
		for _, e := range got {
			names = append(names, e.name)
		}
		if strings.Join(names, ",") != tc.want {
			t.Errorf("selectExperiments(%q) = %v, want %s", tc.run, names, tc.want)
		}
	}
}

// TestExperimentRegistry pins the registry: names are unique and each
// entry sets exactly one of table and figure.
func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] {
			t.Errorf("experiment %q listed twice", e.name)
		}
		seen[e.name] = true
		if (e.table == nil) == (e.figure == nil) {
			t.Errorf("experiment %q must set exactly one of table and figure", e.name)
		}
	}
}
