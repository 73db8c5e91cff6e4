package engine

// RunInterposed exposes run to the lattice test.
var RunInterposed = run
