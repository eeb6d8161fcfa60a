"""Names and noise rates of the contamination study's presets.

The table lives apart from :mod:`robustqda.sim`, which builds the preset
scenarios from it, so that the command line can list the names without
loading the study harness.
"""

__all__ = ["PRESET_EPS", "preset_names"]

# Preset name -> (label-noise rate, measurement-noise rate).
PRESET_EPS = {
    "clean": (0.0, 0.0),
    "label": (0.2, 0.0),
    "measurement": (0.0, 0.2),
    "both": (0.1, 0.1),
}


def preset_names() -> tuple:
    return tuple(sorted(PRESET_EPS))
