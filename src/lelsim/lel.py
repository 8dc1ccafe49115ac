"""LEL parameter bundles: archetype presets and parameter exchange.

An LEL is workload + cooling + auxiliary behind protection; the grid
engine (lelsim.grid) integrates it.  This module holds the bundle that
parameterizes one instance, the documented archetype presets, and the
parameter-exchange file format used to ship calibrated bundles between
a facility and the utility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

from lelsim.errors import InvalidArgument, ValidationError
from lelsim.protection import (ProtectionParams, parse_kv_document, read_fields,
                               reject_unknown_keys)
from lelsim.thermal_aux import AuxParams, CoolingParams
from lelsim.workload import WorkloadParams

EXCHANGE_SCHEMA_VERSION = 1


class Archetype(enum.Enum):
    DATACENTER = "datacenter"
    CRYPTO_MINING = "crypto_mining"
    ELECTROLYZER = "electrolyzer"


@dataclass(frozen=True)
class LelParams:
    work: WorkloadParams
    cool: CoolingParams
    aux: AuxParams
    prot: ProtectionParams
    archetype: Archetype = Archetype.DATACENTER


# ---------------------------------------------------------------------------
# archetype presets
#
# Numeric values below are NON-AUTHORITATIVE placeholders meant to make
# uncalibrated runs possible; real deployments replace them via
# calibration and the facility disclosure form.
# ---------------------------------------------------------------------------

_MOTOR_COMMON = dict(R_s=0.02, X_s=0.10, X_m=3.2, R_r=0.02, X_r=0.10,
                     H_m=0.25, mva_base=30.0, load_factor=0.8)


def archetype_defaults(archetype: Archetype) -> LelParams:
    """Documented default parameter bundle for one LEL archetype."""
    if archetype is Archetype.DATACENTER:
        work = WorkloadParams(p_base=20.0, p_full=100.0, tau_eta=30.0, mu_eta=0.55,
                              sigma_xi=0.6, lambda_burst=0.02, lnA_mu=1.0, lnA_sigma=0.5)
        cool = CoolingParams(V_stall=0.62, tau_stall=0.25, T_cool=4.0, **_MOTOR_COMMON)
        aux = AuxParams(p_aux0=10.0, alpha_Z=0.4, alpha_I=0.3, alpha_P=0.3, beta_aux=0.35)
        prot = ProtectionParams(V_ref=1.0, omega_ref=1.0, dV=0.08, dOmega=0.01,
                                t_delay_trip=0.11, t_wait_recon=1.0, t_delay_recon=2.0,
                                kappa_min=0.25, kappa_max=1.0, r_kappa=0.25)
    elif archetype is Archetype.CRYPTO_MINING:
        work = WorkloadParams(p_base=5.0, p_full=90.0, tau_eta=120.0, mu_eta=0.92,
                              sigma_xi=0.4, lambda_burst=0.002, lnA_mu=1.5, lnA_sigma=0.4)
        cool = CoolingParams(V_stall=0.58, tau_stall=0.30, T_cool=3.0,
                             **{**_MOTOR_COMMON, "mva_base": 15.0})
        aux = AuxParams(p_aux0=4.0, alpha_Z=0.6, alpha_I=0.2, alpha_P=0.2, beta_aux=0.25)
        prot = ProtectionParams(V_ref=1.0, omega_ref=1.0, dV=0.12, dOmega=0.015,
                                t_delay_trip=0.16, t_wait_recon=0.5, t_delay_recon=1.0,
                                kappa_min=0.10, kappa_max=1.0, r_kappa=0.5)
    elif archetype is Archetype.ELECTROLYZER:
        work = WorkloadParams(p_base=10.0, p_full=80.0, tau_eta=600.0, mu_eta=0.75,
                              sigma_xi=1.0, lambda_burst=0.0005, lnA_mu=2.0, lnA_sigma=0.3)
        cool = CoolingParams(V_stall=0.60, tau_stall=0.30, T_cool=5.0,
                             **{**_MOTOR_COMMON, "mva_base": 10.0})
        aux = AuxParams(p_aux0=5.0, alpha_Z=0.3, alpha_I=0.3, alpha_P=0.4, beta_aux=0.30)
        prot = ProtectionParams(V_ref=1.0, omega_ref=1.0, dV=0.06, dOmega=0.006,
                                t_delay_trip=0.13, t_wait_recon=2.0, t_delay_recon=4.0,
                                kappa_min=0.15, kappa_max=1.0, r_kappa=0.12)
    else:
        raise InvalidArgument(f"unknown archetype: {archetype!r}")
    return LelParams(work=work, cool=cool, aux=aux, prot=prot, archetype=archetype)


# ---------------------------------------------------------------------------
# parameter-exchange file (flat key-value blocks, schema versioned)
# ---------------------------------------------------------------------------

# each block's LelParams field, which is also its key prefix, and its
# parameter dataclass; a block's keys follow the dataclass's field order
_BLOCKS = {"work": WorkloadParams, "cool": CoolingParams, "aux": AuxParams,
           "prot": ProtectionParams}


def dump_lel_params(params: LelParams) -> str:
    """Serialize a parameter bundle; parse_lel_params round-trips exactly."""
    lines = [f"schema_version = {EXCHANGE_SCHEMA_VERSION}",
             f"archetype = {params.archetype.value}"]
    for prefix in _BLOCKS:
        block = getattr(params, prefix)
        for f in fields(block):
            lines.append(f"{prefix}.{f.name} = {getattr(block, f.name)!r}")
    return "\n".join(lines) + "\n"


def parse_lel_params(document: str) -> LelParams:
    """Parse a parameter-exchange document into a validated LelParams."""
    kv = parse_kv_document(document)
    if "schema_version" not in kv:
        raise ValidationError("parameter-exchange file missing schema_version")
    try:
        version = int(kv["schema_version"])
    except ValueError as exc:
        raise ValidationError(f"schema_version: {exc}") from exc
    if version != EXCHANGE_SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version}")
    keys = {prefix: {f"{prefix}.{f.name}": f.name for f in fields(cls)}
            for prefix, cls in _BLOCKS.items()}
    reject_unknown_keys(kv, {"schema_version", "archetype"}.union(*keys.values()),
                        "parameter-exchange file")
    if "archetype" not in kv:
        raise ValidationError("parameter-exchange file missing archetype")
    try:
        archetype = Archetype(kv["archetype"])
    except ValueError as exc:
        raise ValidationError(f"unknown archetype {kv['archetype']!r}") from exc
    return LelParams(archetype=archetype, **{
        prefix: read_fields(kv, keys[prefix], cls, "parameter-exchange file")
        for prefix, cls in _BLOCKS.items()})
