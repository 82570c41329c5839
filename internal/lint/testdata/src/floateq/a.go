package floateq

func exactEq(a, b float64) bool {
	return a == b // want "exact floating-point == comparison"
}

func exactNeq(a, b float64) bool {
	return a != b // want "exact floating-point != comparison"
}

func zeroGuard(s float64) float64 {
	if s == 0 { // the exact-zero division guard is exempt
		return 0
	}
	return 1 / s
}

func zeroOnTheLeft(y float32) bool {
	return 0 != y // either operand may be the constant zero
}

const unset float64 = 0.0

func zeroSentinel(cfg float64) bool {
	return cfg != 0.0 || cfg == unset // typed and untyped zero constants alike
}

func nonZeroConst(x float64) bool {
	return x == 0.5 // want "exact floating-point == comparison"
}

func float32Too(a, b float32) bool {
	return a == b // want "exact floating-point == comparison"
}

func almostEqual(a, b float64) bool {
	return a == b || absDiff(a, b) < 1e-9 // epsilon helpers may short-circuit on exact equality
}

func withinEps(a, b, eps float64) bool {
	return a == b || absDiff(a, b) <= eps
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func nanCheck(x float64) bool {
	return x != x // the portable NaN test is allowed
}

func ints(a, b int) bool {
	return a == b // integers compare exactly by design
}

func ordered(a, b float64) bool {
	return a < b // only == and != are exact-comparison hazards
}
