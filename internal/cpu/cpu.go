// Package cpu reports the processor features that the assembly kernels of
// ugraph (world fills) and core (degree-rule sweeps) require, checked once
// per process.
package cpu
