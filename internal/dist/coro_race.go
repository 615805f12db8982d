//go:build race

package dist

func init() { keepIdleCoros = 1 << 16 }
