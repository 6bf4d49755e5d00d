package repro.video

import org.scalatest.funsuite.AnyFunSuite

class VideoProfileSpec extends AnyFunSuite {

  test("six datasets in the paper's order") {
    assert(VideoProfile.all.map(_.name) ===
      Vector("jackson", "miami", "tucson", "dashcam", "park", "airport"))
  }

  test("query A runs on jackson/miami/tucson, query B on the rest (§6.1)") {
    assert(VideoProfile.queryAVideos.map(_.name) === Vector("jackson", "miami", "tucson"))
    assert(VideoProfile.queryBVideos.map(_.name) === Vector("dashcam", "park", "airport"))
  }

  test("dashcam has the heaviest motion (drives Fig 11b's storage peak)") {
    assert(VideoProfile.all.maxBy(_.motionFactor) === VideoProfile.dashcam)
    assert(VideoProfile.dashcam.motionFactor > 3 * VideoProfile.airport.motionFactor / 1.5)
  }

  test("jackson is the unit-motion reference") {
    assert(VideoProfile.jackson.motionFactor === 1.0)
  }

  test("event rates are plausible frame fractions") {
    VideoProfile.all.foreach(v => assert(v.eventRate > 0.05 && v.eventRate < 0.6, v.name))
  }

  test("profiles reject non-positive parameters") {
    assertThrows[IllegalArgumentException](VideoProfile("x", 0.0, 0.1, 0.0))
    assertThrows[IllegalArgumentException](VideoProfile("x", 1.0, 0.0, 0.0))
    assertThrows[IllegalArgumentException](VideoProfile("x", 1.0, 1.0, 0.0))
  }
}
