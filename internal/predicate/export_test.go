package predicate

// BenchSet is benchSet, for the benchmarks in package predicate_test.
var BenchSet = benchSet
