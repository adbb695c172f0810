"""Self-distillation of dense vision-transformer features at desk scale.

A frozen backbone teaches a trainable refiner + head to reproduce its own
high-resolution feature maps from 4x-downsampled input, trained with an
L1 + Sobel-edge + radial-spectral loss. See README.md for the tour.
"""

__version__ = "0.1.0"
