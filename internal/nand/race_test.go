//go:build race

package nand

func init() { raceDetectorEnabled = true }
