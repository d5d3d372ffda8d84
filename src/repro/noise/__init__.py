"""Noise channels, readout errors, noise models and synthetic devices."""

from .channels import (
    KrausChannel,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    identity_channel,
    pauli_channel,
    phase_damping_channel,
    phase_flip_channel,
    thermal_relaxation_channel,
)
from .device import (
    DeviceModel,
    EdgeCalibration,
    QubitCalibration,
    depolarizing_from_average_infidelity,
    fake_cusco,
    fake_device,
    fake_hanoi,
    fake_kyoto,
    fake_mumbai,
    falcon_27_coupling,
    heavy_hex_coupling,
    linear_coupling,
)
from .model import NoiseModel, as_noise_model
from .readout import ReadoutError

__all__ = [
    "KrausChannel",
    "identity_channel",
    "depolarizing_channel",
    "pauli_channel",
    "bit_flip_channel",
    "phase_flip_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "thermal_relaxation_channel",
    "ReadoutError",
    "NoiseModel",
    "as_noise_model",
    "DeviceModel",
    "QubitCalibration",
    "EdgeCalibration",
    "fake_device",
    "fake_mumbai",
    "fake_hanoi",
    "fake_kyoto",
    "fake_cusco",
    "falcon_27_coupling",
    "heavy_hex_coupling",
    "linear_coupling",
    "depolarizing_from_average_infidelity",
]
