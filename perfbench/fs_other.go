//go:build !linux

package main

// filesystem names the filesystem holding dir; only Linux is recognised.
func filesystem(dir string) string { return "unknown" }
