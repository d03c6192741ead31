package lin

// The deterministicgen half of the fixture, standing in for the
// generator packages: output must be a pure function of (seed,
// position).

import "math/rand"

func unseeded() float64 {
	return rand.Float64() // want "global math/rand state"
}

func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

func fromMap(m map[string]float64) []float64 {
	var out []float64
	for _, v := range m { // want "map iteration order"
		out = append(out, v)
	}
	return out
}

func fromSlice(s []float64) []float64 {
	out := make([]float64, 0, len(s))
	out = append(out, s...)
	return out
}
