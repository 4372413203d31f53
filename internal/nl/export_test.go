package nl

// ReferenceParseMasked exposes the uncompiled oracle (reference_test.go) to
// the external test package, which can import internal/data where this one
// cannot.
var ReferenceParseMasked = referenceParseMasked
