//go:build amd64 && !amd64.v3

package nn

// fmaFusable reports whether the compiler may fuse s += a*b into one FMA
// instruction in this build.
const fmaFusable = false
