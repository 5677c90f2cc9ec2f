//go:build race

package obs

func init() { raceDetectorEnabled = true }
