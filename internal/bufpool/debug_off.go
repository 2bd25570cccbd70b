//go:build !bufdebug

package bufpool

func debugGet([]byte) {}
func debugPut([]byte) {}
