// Package mid is the only caller of leaf.Used.
package mid

import "fixture/deadcodepartial/leaf"

// Run calls into leaf.
func Run() { leaf.Used() }
