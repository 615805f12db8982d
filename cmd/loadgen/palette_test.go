package main

import (
	"fmt"
	"net/http"
	"slices"
	"testing"
)

// TestMixPalettes runs loadgen's palette probe against an in-process colord
// and pins every coloring mix's measured palette exactly: each template's
// colorsUsed, in mixes() order, and the mean loadgen reports. Palettes are
// deterministic, so any change is an algorithm change, not noise.
func TestMixPalettes(t *testing.T) {
	for _, tc := range []struct {
		mix      string
		palettes []int
		mean     string
	}{
		{"small", []int{13, 6, 8, 7, 2}, "7.20"},
		{"medium", []int{18, 22, 12, 12, 9, 17, 6}, "13.71"},
		{"fewcolors", []int{13, 6, 5, 13}, "9.25"},
	} {
		t.Run(tc.mix, func(t *testing.T) {
			templates, err := mixes(tc.mix)
			if err != nil {
				t.Fatal(err)
			}
			base, cleanup, err := startServer("", 0, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			got, mean, err := probePalettes(http.DefaultClient, base+"/v1/color", templates)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.palettes) || fmt.Sprintf("%.2f", mean) != tc.mean {
				t.Errorf("palettes %v (mean %.2f), want %v (mean %s)", got, mean, tc.palettes, tc.mean)
			}
		})
	}
}
