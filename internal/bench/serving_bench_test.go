package bench

import (
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
)

func BenchmarkServingForward(b *testing.B) {
	inf, err := models.ResNet50TinyForServing(32, 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(16, 3, 32, 32)
	x.FillPattern(0.7)
	inf.Forward(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf.Forward(x)
	}
}
