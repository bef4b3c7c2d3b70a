// Package leaf holds one live and one dead function.
package leaf

// Used is reached from main through mid.
func Used() {}

// Orphan is reached from nowhere.
func Orphan() {}
