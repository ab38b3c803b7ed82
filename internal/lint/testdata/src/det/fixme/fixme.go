// Package fixme is a detection fixture: a key-and-value map range with
// nothing order-insensitive about it gets detmaprange's generic
// collect-and-sort diagnostic.
package fixme

import "fmt"

func dump(m map[int]string) {
	for k, v := range m { // want `iteration over map m is order-dependent`
		fmt.Println(k, v)
	}
}
