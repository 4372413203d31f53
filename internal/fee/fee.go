// Package fee is the one type every booked or summed fee has: a whole
// number of nanodollars. Integer addition is associative, so a total is the
// same in whatever order concurrent work books into it; a float64 appears
// only where a dollar amount is rendered.
package fee

import (
	"encoding/json"
	"math"
)

// Fee is an amount of money in nanodollars (1e-9 dollars).
type Fee int64

// perDollar is the number of nanodollars in a dollar.
const perDollar = 1e9

// FromDollars converts a dollar amount to the nearest whole nanodollar.
// For any Fee f below 2^50 nanodollars (about $1.1M),
// FromDollars(f.Dollars()) == f.
func FromDollars(d float64) Fee {
	return Fee(math.Round(d * perDollar))
}

// Dollars renders f in dollars: the float64 nearest to f/1e9.
func (f Fee) Dollars() float64 {
	return float64(f) / perDollar
}

// MarshalJSON writes f as encoding/json writes the float64 f.Dollars(): on
// the wire a Fee field is a number of dollars.
func (f Fee) MarshalJSON() ([]byte, error) {
	return json.Marshal(f.Dollars())
}

// UnmarshalJSON reads a dollar number, rounding it to the nearest
// nanodollar. A JSON null leaves f unchanged.
func (f *Fee) UnmarshalJSON(b []byte) error {
	var d *float64
	if err := json.Unmarshal(b, &d); err != nil || d == nil {
		return err
	}
	*f = FromDollars(*d)
	return nil
}
