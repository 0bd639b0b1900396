package main

import (
	"reflect"
	"slices"
	"testing"
)

var testStudies = []string{"npgsql", "kafka", "cosmosdb", "network", "buildandtest", "healthtelemetry"}

func TestStudiesGenIsAPureFunctionOfTheSeed(t *testing.T) {
	ops := func(seed int64) [][]studyItem {
		g := newStudiesGen(seed, testStudies)
		var out [][]studyItem
		for range 100 {
			out = append(out, g.next())
		}
		return out
	}
	a, b, c := ops(7), ops(7), ops(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different op lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("another seed gave the same op list")
	}
	for _, list := range [][][]studyItem{a, c} {
		for i, op := range list {
			var names []string
			for _, it := range op {
				if it.Seed < 1 || it.Seed > studySeeds {
					t.Fatalf("op %d: seed %d outside 1..%d", i, it.Seed, studySeeds)
				}
				names = append(names, it.Study)
			}
			slices.Sort(names)
			want := slices.Sorted(slices.Values(testStudies))
			if !slices.Equal(names, want) {
				t.Fatalf("op %d holds %v, want each study once", i, names)
			}
		}
	}
}

func TestSyntheticGenIsAPureFunctionOfTheSeed(t *testing.T) {
	maxTs := []int{2, 10, 18, 26, 34, 42}
	ops := func(seed int64) [][]syntheticItem {
		g := newSyntheticGen(seed, maxTs)
		var out [][]syntheticItem
		for range 100 {
			out = append(out, g.next())
		}
		return out
	}
	a, b, c := ops(7), ops(7), ops(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different op lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("another seed gave the same op list")
	}
	for i, op := range c {
		var got []int
		for _, it := range op {
			got = append(got, it.MaxT)
		}
		if !slices.Equal(got, maxTs) {
			t.Fatalf("op %d has MaxTs %v, want %v", i, got, maxTs)
		}
	}
}

func serveOps(seed int64, caller, n int) []serveOp {
	g := newServeGen(seed, caller, tenants[2*caller:2*caller+2], testStudies)
	out := make([]serveOp, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestServeGenIsAPureFunctionOfTheSeed(t *testing.T) {
	blockLen := len(testStudies)*(blockNew+blockRepeat) + 1
	n := 60 * blockLen
	a, b, c := serveOps(7, 1, n), serveOps(7, 1, n), serveOps(8, 1, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different op lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("another seed gave the same op list")
	}
	if reflect.DeepEqual(a, serveOps(7, 0, n)) {
		t.Fatal("both callers got the same op list")
	}
	// Once every tenant has a history for every study, each block holds
	// exactly the same mix, whatever the seed.
	want := map[string]int{"put": 1, "repeat": 12, "new-live": 9, "new-offline": 3}
	for _, ops := range [][]serveOp{a, c} {
		for blk := 20; blk < n/blockLen; blk++ {
			classes := map[string]int{}
			studies := map[string]int{}
			for _, op := range ops[blk*blockLen : (blk+1)*blockLen] {
				classes[op.class()]++
				if !op.Put {
					studies[op.Study]++
				}
			}
			if !reflect.DeepEqual(classes, want) {
				t.Fatalf("block %d has class mix %v, want %v", blk, classes, want)
			}
			for _, s := range testStudies {
				if studies[s] != blockNew+blockRepeat {
					t.Fatalf("block %d has %d sessions of %s, want %d", blk, studies[s], s, blockNew+blockRepeat)
				}
			}
		}
	}
}

func TestServeGenRepeatsOnlyTheTenantsOwnRecentSpecs(t *testing.T) {
	seen := map[tenantSpec]bool{}
	for _, op := range serveOps(3, 0, 2000) {
		if op.Tenant != tenants[0] && op.Tenant != tenants[1] {
			t.Fatalf("caller 0 got an op for %s", op.Tenant)
		}
		if op.Put {
			continue
		}
		key := tenantSpec{op.Tenant, op.Spec}
		if op.Repeat != seen[key] {
			t.Fatalf("%s: Repeat=%v, but the tenant ran the spec before: %v", op, op.Repeat, seen[key])
		}
		seen[key] = true
		if op.Spec.Seed < 1 || op.Spec.Seed > serveSeeds || op.Spec.Study != op.Study {
			t.Fatalf("bad spec %+v", op.Spec)
		}
		if op.Spec.Corpus != "" && op.Spec.Corpus != op.Study {
			t.Fatalf("offline spec %+v names another study's corpus", op.Spec)
		}
	}
}
