"""Quantum optics of redshifted photons: wavepackets, Gaussian states, links.

The package splits into small layers.  ``spacetime`` gives frequency ratios
between observers around a nonrotating mass; ``wavepacket`` moves finite
bandwidth spectral amplitudes through that ratio and measures their overlap,
with ``spline`` fitting and integrating the splines of tabulated ones;
``symplectic`` is a covariance matrix engine for Gaussian states;
``metrology`` turns state distinguishability into Fisher information and
estimation bounds; ``protocols`` converts mode mismatch into interference
error rates; ``cli`` drives all of it from JSON scenario files.

Every module loads with the package, but numpy loads on its first use:
Gaussian photons, redshifts, QBER sweeps and the sensing QFI are closed
forms in ``math``, so a CLI run of those tasks never imports numpy.
"""

from .constants import (
    C_LIGHT,
    EARTH_MASS_KG,
    EARTH_RADIUS_M,
    G_NEWTON,
    HBAR,
    K_BOLTZMANN,
)
from .errors import (
    ConfigParseError,
    DimensionMismatch,
    DomainError,
    GraviphotonError,
    HorizonError,
    NonPhysicalState,
    NormalizationError,
    NumericalError,
    OrbitDomainError,
)
from .metrology import (
    EstimationReport,
    SensingChannel,
    build_sensing_channel,
    cramer_rao_bound,
    gaussian_fidelity,
    qfi_finite_difference,
    qfi_sweep,
    sensing_qfi,
)
from .protocols import (
    LinkScenario,
    QberReport,
    interference_qber,
    link_redshift,
    qber_at_chi,
    qber_bandwidth_sweep,
)
from .spacetime import (
    LAPSE_FLOOR,
    OBSERVER_KINDS,
    ObserverPath,
    RedshiftFactor,
    SchwarzschildGeometry,
    circular_orbit_angular_velocity,
    redshift_static_orbit,
    redshift_static_static,
    static_proper_acceleration,
)
from .symplectic import (
    GaussianState,
    SymplecticMatrix,
    apply_symplectic,
    embed_symplectic,
    gate_beamsplitter,
    gate_single_mode_squeezer,
    gate_two_mode_squeezer,
    mean_photon_number,
    mode_mixer_from_overlap,
    partial_trace,
    passive_symplectic,
    state_coherent,
    state_thermal,
    state_vacuum,
    symplectic_form,
    tensor_product,
    thermal_occupation,
    tritter,
    williamson_eigenvalues,
)
from .wavepacket import (
    GaussianProfile,
    SampledGridProfile,
    l2_norm,
    mixing_angle,
    overlap,
    redshift_overlap,
    redshift_transform,
    sharp_commutator_scale,
)

__version__ = "0.1.0"
