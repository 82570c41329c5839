//go:build !amd64 || amd64.v3

package forecast

// fmaFusable reports whether the compiler may fuse s += a*b into one FMA
// instruction in this build: on every GOARCH but amd64, and on amd64 from
// GOAMD64=v3 on. A fused sum rounds once instead of twice, so the bit-for-bit
// goldens, recorded on amd64 at GOAMD64=v1, do not hold there.
const fmaFusable = true
