package suppress

import "time"

func suppressedAbove() time.Time {
	//lint:ignore noclock fixture exercises the leading-directive path
	return time.Now()
}

func suppressedTrailing() time.Time {
	return time.Now() //lint:ignore noclock trailing directives apply to their own line
}

func suppressedList() time.Time {
	//lint:ignore noclock,floateq one directive may cover several analyzers
	return time.Now()
}

func wrongAnalyzer() time.Time {
	//lint:ignore maporder this names a different analyzer, so noclock still fires
	return time.Now() // want "time\.Now reads the wall clock"
}

func unsuppressed() time.Time {
	return time.Now() // want "time\.Now reads the wall clock"
}
