// Package main is the binary of a three-package module: main calls
// mid, and only mid calls leaf.Used. Linting the whole module finds
// leaf.Orphan alone; linting main and leaf without mid lacks the edge
// into Used, so the rule must stay silent rather than report it.
package main

import "fixture/deadcodepartial/mid"

func main() { mid.Run() }
