"""polyrefine: CNN-guided refinement of polygonal meshes.

Polygons are classified into shape classes from 64x64 binary rasters by a
small from-scratch CNN; the predicted label drives the CNN-MP and CNN-RP
refinement strategies. Quality metrics and a lowest-order virtual element
Poisson solver validate the refined grids.
"""
from .geometry import Polygon, PolygonError
from .mesh import PolyMesh, load_mesh, save_mesh
from .raster import BinaryImage, rasterize
from .refine import RefinementResult, Strategy

__version__ = "0.1.0"

__all__ = [
    "BinaryImage",
    "PolyMesh",
    "Polygon",
    "PolygonError",
    "RefinementResult",
    "Strategy",
    "load_mesh",
    "rasterize",
    "save_mesh",
    "__version__",
]
