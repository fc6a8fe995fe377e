// Package broken is a lint fixture that does not type-check: the
// loader must report it as an error naming the package, never as a
// clean run. It lives outside testdata/src so the fixture suite and
// ./... never load it.
package broken

// Half returns a string where an int is declared.
func Half(n int) int {
	return "half"
}
