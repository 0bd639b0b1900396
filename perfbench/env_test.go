package main

import "testing"

func TestParseStatmRSS(t *testing.T) {
	got, err := parseStatmRSS("262144 6400 1024 10 0 2048 0\n", 4096)
	if err != nil || got != 25 {
		t.Fatalf("parseStatmRSS = %v, %v; want 25 MB", got, err)
	}
	for _, bad := range []string{"", "262144", "262144 x 1"} {
		if _, err := parseStatmRSS(bad, 4096); err == nil {
			t.Errorf("parseStatmRSS(%q): no error", bad)
		}
	}
}

func TestRSSOfThisProcess(t *testing.T) {
	rss, err := rssMB("self")
	if err != nil {
		t.Fatal(err)
	}
	hwm, err := peakRSSMB("self")
	if err != nil {
		t.Fatal(err)
	}
	if rss <= 0 || rss > hwm {
		t.Fatalf("RSS %.2f MB, VmHWM %.2f MB: want 0 < RSS <= VmHWM", rss, hwm)
	}
}
