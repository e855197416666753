package main

import (
	"math"
	"slices"
	"testing"
)

// TestCheckFlags: a configuration of no requests, whose latency quantiles
// would be empty, a negative queue depth, or a fault rate outside [0, 1]
// or NaN is refused before training; the edges of each range are
// accepted.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		requests, queue int
		faultrate       float64
		ok              bool
	}{
		{1, 0, 0, true},
		{65536, 8, 1, true},
		{0, 0, 0, false},
		{-1, 0, 0, false},
		{1, -1, 0, false},
		{1, 0, -0.1, false},
		{1, 0, 1.5, false},
		{1, 0, math.NaN(), false},
	} {
		err := checkFlags(c.requests, c.queue, c.faultrate)
		if (err == nil) != c.ok {
			t.Errorf("-requests %d -queue %d -faultrate %v: error %v, want accepted=%v", c.requests, c.queue, c.faultrate, err, c.ok)
		}
	}
}

// TestParseCSV: -workers and -clients take positive integers only; a zero,
// a negative, an empty entry, a non-number and an entry past the int range
// (which Atoi reports with a non-zero value) are refused, and spaces
// around an entry are accepted. Only the parser runs: no row starts a
// worker.
func TestParseCSV(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int // nil: refused
	}{
		{"0", nil},
		{"-1", nil},
		{"", nil},
		{"1,,2", nil},
		{"x", nil},
		{"99999999999999999999", nil},
		{"1,2", []int{1, 2}},
		{" 2 ", []int{2}},
	} {
		got, err := parseCSV(c.in)
		if (err == nil) != (c.want != nil) || !slices.Equal(got, c.want) {
			t.Errorf("parseCSV(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}
