"""Output bytes pinned: the sha256 of every file the CLI writes for the
preset sweeps, `validate`, and `linear`/`steady` on the two model presets
and on a bare-detuning config with three branches.

The digests hold for the numpy version in NUMPY; under another version
LAPACK may round differently, so the test skips.  A change that moves
output bytes on purpose updates DIGESTS (print the current ones with
`PYTHONPATH=src python tests/test_golden.py`) and lists each old -> new
digest in CHANGES.md.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from trimech.cli import main

#: numpy version the digests were recorded with
NUMPY = "2.4.6"

#: fig3-like physics (mirror at 10 kappa_c, 1 K baths) at a bare detuning
#: where the mean field has three branches, one of them stable
BARE_CONFIG = """\
[physical]
wavelength       = 1064 nm
cavity_length    = 0.5 cm
cavity_decay     = 50 kHz
mirror_mass      = 40 ng
mirror_freq      = 500 kHz
mirror_damping   = 140 Hz
sphere_radius    = 0.5 um
sphere_density   = 2650 kg/m^3
refractive_index = 1.5
sphere_freq      = 170 kHz
sphere_damping   = 0.5 mHz
cavity_waist     = 40 um
bath_temp_mirror = 1 K
bath_temp_sphere = 1 K
input_power      = 5e-5 W
sphere_site      = node

[model]
detuning_mode = bare
detuning      = -27.2
"""

#: run name -> CLI arguments; BARE stands for the path of BARE_CONFIG
BARE = object()
RUNS = {
    **{f"sweep-{p}": ["sweep", "--preset", p, "--format", "both"]
       for p in ("fig2", "fig3", "fig4")},
    "validate": ["validate"],
    **{f"{cmd}-{p}": [cmd, "--preset", p]
       for cmd in ("linear", "steady") for p in ("fig3", "fig4")},
    "linear-bare": ["linear", "-i", BARE],
    "steady-bare": ["steady", "-i", BARE],
}

#: run name -> {file written: sha256}
DIGESTS = {
    "linear-bare": {
        "linear.txt":
            "9562d12b4c4dbf649cc12e7aee8c6cd070f574d070af316db3721113e00c2c7e",
    },
    "linear-fig3": {
        "linear.txt":
            "68e5a7478d3857c52f790e8a8c7457636358567eded9c5ff151c92b1958f1fba",
    },
    "linear-fig4": {
        "linear.txt":
            "fb1b9b997f7bf6e605e1ed432f8307fff5733f00bcf7701d2cf70d02c7d95903",
    },
    "steady-bare": {
        "steady_state.txt":
            "6ca1598910111a5044c47bbd77c5a7b3d5bb9883a5c3e612e3512dadeb2991ce",
    },
    "steady-fig3": {
        "steady_state.txt":
            "c7c1dccb764b3a5061d9b4c4936390d9f6b0bb7adf40d754196321b069f18f8f",
    },
    "steady-fig4": {
        "steady_state.txt":
            "005384929f30daeae71a26a5be1e15bf84a735d186e5ae3f3f7eaf78f7b010d6",
    },
    "sweep-fig2": {
        "landscape.dat":
            "d1a858aa5065840ef4276bffef472a35d2a9e6db4ab4a60188f8b9469ddc2ace",
        "summary.json":
            "1d8876a73332beb06c93399241c301d79558c4ec2eccbd0736d8b688b6ba22bf",
        "sweep.csv":
            "2a73bef9b2be0d6b02b0458c96ed9bc0b120ff64ddc4804b2ff3ac48dcf8bf47",
    },
    "sweep-fig3": {
        "summary.json":
            "4698c7c4d1e79cc0b1383adad19db9e3a75fb5966d0c002552a62a1331b3110a",
        "sweep.csv":
            "0b9049401fd0957f6682e7fae3ca1eab61e710bb6cd2efb6dd7a12765fd83601",
    },
    "sweep-fig4": {
        "summary.json":
            "9b7169edae25a9f188e75cb6c07c30a311ce8158bf58b68c212e5769590cb7e7",
        "sweep.csv":
            "8fd5c3ee90653544825d40d069e39469ad74be287464f16c2b72e879aff25525",
    },
    "validate": {
        "validation.txt":
            "b9734625f1535395bf4a2fa8af1108945ac1e57b961df92622408b3f33fed15a",
    },
}


def output_digests(name, out_dir):
    """Run `name` into the empty directory `out_dir`; {file: sha256}."""
    out_dir = Path(out_dir)
    config = out_dir / "bare.cfg"
    config.write_text(BARE_CONFIG, encoding="utf-8")
    argv = [str(config) if arg is BARE else arg for arg in RUNS[name]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["-o", str(out_dir / "out")]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted((out_dir / "out").iterdir())}


@pytest.mark.skipif(np.__version__ != NUMPY,
                    reason=f"digests recorded with numpy {NUMPY}, not "
                           f"{np.__version__}; LAPACK may round differently")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_bytes(name, tmp_path):
    assert output_digests(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            files = output_digests(name, tmp)
        print(f'    "{name}": {{')
        for file, digest in files.items():
            print(f'        "{file}":\n            "{digest}",')
        print("    },")
    print("}")
