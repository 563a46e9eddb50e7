"""The package namespace, and the imports the README and the demos rely on."""

import ast
import importlib
import pathlib
import re
import types

import collisim

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "CouplingKind",
    "ExperimentConfig",
    "NetworkSpec",
    "NumericalError",
    "ProtocolConfig",
    "ProtocolMode",
    "SIGMA_X",
    "SIGMA_Z",
    "Topology",
    "Trajectory",
    "bell_catalog",
    "build_interaction_hamiltonian",
    "build_propagator",
    "build_protocol",
    "build_system_hamiltonian",
    "concurrence",
    "density_from_pure",
    "embed_single",
    "fidelity",
    "load_config",
    "pair_concurrences",
    "pair_label",
    "partial_trace",
    "preset",
    "preset_topology",
    "purity",
    "reduced_pair",
    "reproduce",
    "run_experiment",
    "run_protocol",
    "sweep",
]

# Names the package namespace no longer carries; each stays in its module.
SUBMODULE_NAMES = {
    "linalg": "ATOL_STATE ATOL_UNITARY IDENTITY_2 PSD_SLACK SIGMA_MINUS SIGMA_PLUS "
    "SIGMA_Y check_density_matrix check_pure_state expm_hermitian",
    "network": "pair_term qubit_label",
    "dynamics": "MAX_STEP_CORRECTION collision_step",
    "metrics": "BellTarget PeakReport all_pairs characterize_peak find_peaks",
    "runner": "DUAL_MODE_PRESETS PRESETS ExperimentResult config_from_dict "
    "config_to_dict emit_csv emit_report main",
}


def test_public_names():
    names = sorted(
        name
        for name, value in vars(collisim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(names) <= 32


def test_trimmed_names_stay_in_their_modules():
    for module_name, names in SUBMODULE_NAMES.items():
        module = importlib.import_module(f"collisim.{module_name}")
        for name in names.split():
            assert hasattr(module, name), f"collisim.{module_name}.{name}"


def documented_sources():
    """(where, source) for every demo and every python block of the README."""
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md python block {k}", block


def test_demo_and_readme_imports_resolve():
    resolved = set()
    for where, source in documented_sources():
        for node in ast.walk(ast.parse(source, where)):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module.split(".")[0] != "collisim":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{where}: {node.module}.{alias.name}"
                resolved.add(alias.name)
    # The demos and the README import 19 distinct names today; fewer means
    # the scan missed a file or a code block.
    assert len(resolved) >= 19
