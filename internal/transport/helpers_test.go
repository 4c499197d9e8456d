package transport

import (
	"fmt"

	"flecc/internal/image"
	"flecc/internal/vclock"
)

// sampleBigImage builds an image with n entries for payload-size tests.
func sampleBigImage(n int) *image.Image {
	im := image.New()
	for i := 0; i < n; i++ {
		im.Put(image.Entry{
			Key:     fmt.Sprintf("k%06d", i),
			Value:   []byte(fmt.Sprintf("payload-%d", i)),
			Version: vclock.Version(i),
			Writer:  "w",
		})
	}
	im.Version = vclock.Version(n)
	return im
}
