//go:build !linux

package main

import "errors"

// pinOneCPU is implemented on Linux only.
func pinOneCPU() (int, func() error, error) {
	return 0, nil, errors.New("pinning to one CPU needs Linux")
}
